package main

import (
	"net"
	"strings"
	"testing"

	"repro"
	"repro/internal/dist"
)

// TestLaunchPipelineDeterministic pins the property spawn mode's
// bit-identity check rests on: the digest is a pure function of
// (p, seed, elements, rank), stable across reruns.
func TestLaunchPipelineDeterministic(t *testing.T) {
	const p, seed, elements = 3, 1234, 600
	run := func() ([]uint64, error) {
		digests := make([]uint64, p)
		err := repro.Run(p, seed, func(w *repro.Worker) error {
			d, err := launchPipeline(w, elements)
			digests[w.Rank()] = d
			return err
		})
		return digests, err
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if a[r] != b[r] {
			t.Fatalf("rank %d digest changed across reruns: %#x vs %#x", r, a[r], b[r])
		}
		if a[r] == 0 {
			t.Fatalf("rank %d digest is zero", r)
		}
	}
	// Distinct ranks hold distinct shards, so equal digests would mean
	// the digest ignores the data.
	if a[0] == a[1] {
		t.Fatal("ranks 0 and 1 produced identical digests")
	}
}

// TestParseDigestLine covers the parent's side of the child protocol.
func TestParseDigestLine(t *testing.T) {
	out := "launch: noise\nLAUNCH-DIGEST rank=2 p=4 seed=42 conns=3 digest=00deadbeef015678 verdict=ok\ntrailing\n"
	d, err := parseDigestLine(out, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0x00deadbeef015678 {
		t.Fatalf("digest = %#x", d)
	}
	if _, err := parseDigestLine(out, 1, 4); err == nil {
		t.Fatal("accepted a digest line for the wrong rank")
	}
	if _, err := parseDigestLine("no digest here\n", 0, 4); err == nil {
		t.Fatal("accepted output without a digest line")
	}
	bad := strings.Replace(out, "verdict=ok", "verdict=corrupt", 1)
	if _, err := parseDigestLine(bad, 2, 4); err == nil {
		t.Fatal("accepted a non-ok verdict")
	}
}

// TestLaunchJoinDigestLine runs launchJoin end to end for a 2-rank
// world inside this process (two TCPNodes on pre-bound listeners named
// by one host list), checking the join path the spawn-mode children
// execute.
func TestLaunchJoinDigestLine(t *testing.T) {
	ls, hosts := testHostList(t, 2)
	errs := make(chan error, 1)
	go func() {
		errs <- launchJoin(dist.LaunchConfig{Rank: 1, Hosts: hosts, Listener: ls[1]}, 7, 300, "")
	}()
	if err := launchJoin(dist.LaunchConfig{Rank: 0, Hosts: hosts, Listener: ls[0]}, 7, 300, ""); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestLaunchJoinFlags covers the join-mode flag checks that run before
// any socket is opened.
func TestLaunchJoinFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rank", "0", "-p", "3", "-hosts", "127.0.0.1:1,127.0.0.1:2"}, "-p 3 contradicts a host list of 2 entries"},
		{[]string{"-rank", "0"}, "needs -hosts"},
		{[]string{"-hosts", "127.0.0.1:1"}, "needs -rank"},
		{[]string{"-inherit-listener"}, "needs -rank"},
	} {
		if err := runLaunch(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("launch %v = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// testHostList binds p listeners on OS-assigned loopback ports and
// returns them with the host list that names them.
func testHostList(t *testing.T, p int) ([]net.Listener, []string) {
	t.Helper()
	ls := make([]net.Listener, p)
	hosts := make([]string, p)
	for r := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		ls[r], hosts[r] = l, l.Addr().String()
	}
	return ls, hosts
}
