package cpu

// BenchLoopProgram exposes the fetch-loop benchmark program to the
// external test package, whose benchmarks run it on a full platform.
var BenchLoopProgram = benchLoopProgram
