//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins are skipped under -race, where sync.Pool drops a
// share of what is put back.
const raceEnabled = true
