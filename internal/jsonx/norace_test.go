//go:build !race

package jsonx

const raceEnabled = false
