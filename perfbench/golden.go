package main

// golden holds each workload's output hash at the default seed. A
// change that moves a single simulated cycle, counter, E9 table entry
// or report byte changes the hash and fails the run.
var golden = map[string]string{
	"fig2-control":   "1d9ed3917b16b91a5c1d00e795671dbd07eda54bd3ab6195bd21c112562b3c19",
	"fig2-telemetry": "564b4f5b0e1b612a11f912fdf91cd76aa0e89a2ae532e176a04b07feede01100",
	"e9-grid":        "d367c73ce209b584a907b1ddd7dc1c9cd8314015e2a2586840f68dac4ad01fcc",
	"serve-jobs":     "4b5dae95c44c3474dd683f0b3753277aa91b461950f668c072c670bb21043647",
}
