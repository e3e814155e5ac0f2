// Command fixture is the census self-test's input (census_test.go): the
// census must find exactly stale.Bits and appendFrame here.
package main

type reader interface{ Read() int }

type live struct{}

func (live) Bits() int { return 1 }

type stale struct{}

// Bits is dead: only live.Bits is called, which a match by name misses.
func (stale) Bits() int { return 2 }

// Read is reached only through reader.
func (stale) Read() int { return 3 }

// appendFrame is dead.
func appendFrame(b []byte) []byte { return append(b, 0) }

func main() {
	var r reader = stale{}
	println(live{}.Bits() + r.Read())
}
