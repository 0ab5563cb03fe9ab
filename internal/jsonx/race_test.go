//go:build race

package jsonx

// The race detector slows every memory access several-fold. The float
// sweep is a pure function of its inputs with no shared state, so under
// -race it runs a tenth of its values; the full sweep runs in the
// normal test run.
const raceEnabled = true
