//go:build race

package repro

// raceEnabled reports that this binary was built with the race
// detector, under which the census's type-check runs several times
// slower.
const raceEnabled = true
