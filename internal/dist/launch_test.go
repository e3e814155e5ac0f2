package dist

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/comm"
)

func TestParseHosts(t *testing.T) {
	hosts, err := ParseHosts(" 10.0.0.1:9000, 10.0.0.2:9000 ,localhost:9001")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.1:9000", "10.0.0.2:9000", "localhost:9001"}
	if len(hosts) != len(want) {
		t.Fatalf("got %v", hosts)
	}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("entry %d: %q, want %q", i, hosts[i], want[i])
		}
	}
	for name, in := range map[string]string{
		"empty entry":    "a:1,,b:2",
		"missing port":   "justahost",
		"port zero":      "a:1,b:0",
		"duplicate addr": "a:1,b:2,a:1",
	} {
		if _, err := ParseHosts(in); err == nil {
			t.Errorf("%s: ParseHosts(%q) accepted", name, in)
		}
	}
	// The duplicate error names both ranks.
	_, err = ParseHosts("a:1,b:2,a:1")
	if err == nil || !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("duplicate error %v does not name both ranks", err)
	}
}

// FuzzParseHosts: every host list either errors or parses to entries
// that, joined with commas, parse back to the same list.
func FuzzParseHosts(f *testing.F) {
	f.Add(" 10.0.0.1:9000, 10.0.0.2:9000 ,localhost:9001")
	f.Add("[::1]:7,a:1")
	f.Add("a:1,,b:2")
	f.Add("a:0")
	f.Fuzz(func(t *testing.T, list string) {
		hosts, err := ParseHosts(list)
		if err != nil {
			return
		}
		again, err := ParseHosts(strings.Join(hosts, ","))
		if err != nil {
			t.Fatalf("%q parses to %q, whose join fails: %v", list, hosts, err)
		}
		if !slices.Equal(again, hosts) {
			t.Fatalf("%q parses to %q, whose join parses to %q", list, hosts, again)
		}
	})
}

// startRendezvous serves a rendezvous for p ranks on a fresh loopback
// listener and returns its address plus a channel with the result.
func startRendezvous(t *testing.T, p int, timeout time.Duration) (string, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ServeRendezvous(l, p, timeout)
		done <- err
	}()
	return l.Addr().String(), done
}

func TestRendezvousRoundTrip(t *testing.T) {
	const p = 3
	addr, done := startRendezvous(t, p, 5*time.Second)
	books := make([][]string, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			book, err := Register(addr, r, p, fmt.Sprintf("10.0.0.%d:900%d", r, r), 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			books[r] = book
		}(r)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		for i, a := range books[r] {
			if want := fmt.Sprintf("10.0.0.%d:900%d", i, i); a != want {
				t.Fatalf("rank %d book[%d] = %q, want %q", r, i, a, want)
			}
		}
	}
}

func TestRendezvousDuplicateRankRejected(t *testing.T) {
	addr, done := startRendezvous(t, 2, 5*time.Second)
	first := make(chan error, 1)
	go func() {
		_, err := Register(addr, 0, 2, "10.0.0.1:9000", 5*time.Second)
		first <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first registration land
	_, dupErr := Register(addr, 0, 2, "10.0.0.9:9000", 5*time.Second)
	if dupErr == nil || !strings.Contains(dupErr.Error(), "duplicate registration for rank 0") {
		t.Fatalf("duplicate client error = %v", dupErr)
	}
	srvErr := <-done
	if srvErr == nil || !strings.Contains(srvErr.Error(), "duplicate registration for rank 0") {
		t.Fatalf("server error = %v", srvErr)
	}
	if err := <-first; err == nil {
		t.Fatal("first registrant got a book from an aborted rendezvous")
	}
}

func TestRendezvousRejectsBadRankAndWorldSize(t *testing.T) {
	addr, done := startRendezvous(t, 2, 5*time.Second)
	if _, err := Register(addr, 7, 2, "a:1", 5*time.Second); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "rank 7 out of range") {
		t.Fatalf("server error = %v", err)
	}
	addr, done = startRendezvous(t, 2, 5*time.Second)
	if _, err := Register(addr, 0, 3, "a:1", 5*time.Second); err == nil {
		t.Fatal("world-size mismatch accepted")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "world size") {
		t.Fatalf("server error = %v", err)
	}
}

// TestRendezvousTimeoutNamesMissingRanks is the attribution test: a
// rendezvous that never completes must say exactly who failed to show.
func TestRendezvousTimeoutNamesMissingRanks(t *testing.T) {
	addr, done := startRendezvous(t, 4, 400*time.Millisecond)
	for _, r := range []int{0, 2} {
		go func(r int) {
			// These registrations block for the book that never comes;
			// their failure is expected and uninteresting.
			_, _ = Register(addr, r, 4, fmt.Sprintf("10.0.0.%d:9000", r), 2*time.Second)
		}(r)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("incomplete rendezvous succeeded")
		}
		if !strings.Contains(err.Error(), "missing ranks [1 3]") {
			t.Fatalf("timeout error %q does not name the missing ranks", err)
		}
		if !strings.Contains(err.Error(), "2/4") {
			t.Fatalf("timeout error %q does not report progress", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rendezvous never timed out")
	}
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join(LaunchConfig{Rank: 0}); err == nil {
		t.Fatal("Join without hosts or rendezvous accepted")
	}
	if _, err := Join(LaunchConfig{Rank: 0, Hosts: []string{"a:1"}, Rendezvous: "b:2"}); err == nil {
		t.Fatal("Join with both hosts and rendezvous accepted")
	}
	if _, err := Join(LaunchConfig{Rank: 2, Hosts: []string{"a:1", "b:2"}}); err == nil {
		t.Fatal("Join with out-of-range rank accepted")
	}
	if _, err := Join(LaunchConfig{Rank: 0, P: 3, Hosts: []string{"a:1", "b:2"}}); err == nil {
		t.Fatal("Join with P contradicting host list accepted")
	}
	if _, err := Join(LaunchConfig{Rank: 0, Rendezvous: "a:1"}); err == nil {
		t.Fatal("Join via rendezvous without P accepted")
	}
}

// TestJoinRendezvousWorkers bootstraps four single-rank nodes through a
// rendezvous (all in this process, as four independent cores — the same
// code path four OS processes would take), runs a worker body on each
// via RunLocal, and checks collective results plus the hypercube
// connection bill.
func TestJoinRendezvousWorkers(t *testing.T) {
	const p = 4
	addr, done := startRendezvous(t, p, 10*time.Second)
	cfg := Config{Topology: comm.TopoHypercube, Timeout: 30 * time.Second}
	nodes := make([]*comm.TCPNode, p)
	var joinWg sync.WaitGroup
	for r := 0; r < p; r++ {
		joinWg.Add(1)
		go func(r int) {
			defer joinWg.Done()
			node, err := Join(LaunchConfig{Rank: r, P: p, Rendezvous: addr, Config: cfg})
			if err != nil {
				t.Errorf("rank %d join: %v", r, err)
				return
			}
			nodes[r] = node
		}(r)
	}
	joinWg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()
	seeds := make([]uint64, p)
	sums := make([]uint64, p)
	var runWg sync.WaitGroup
	for r := 0; r < p; r++ {
		runWg.Add(1)
		go func(r int) {
			defer runWg.Done()
			err := RunLocal(nodes[r], r, 42, func(w *Worker) error {
				cs, err := w.CommonSeed()
				if err != nil {
					return err
				}
				seeds[r] = cs
				got, err := w.Coll.AllReduce([]uint64{uint64(w.Rank()) + 1}, collective.OpSum)
				if err != nil {
					return err
				}
				sums[r] = got[0]
				return nil
			})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r)
	}
	runWg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for r := 0; r < p; r++ {
		if want := uint64(p * (p + 1) / 2); sums[r] != want {
			t.Fatalf("rank %d allreduce = %d, want %d", r, sums[r], want)
		}
	}
	// A mem-transport run with the same seed must agree on the common
	// seed — the cross-process bootstrap changes nothing semantic.
	var memSeed uint64
	if err := Run(p, 42, func(w *Worker) error {
		cs, err := w.CommonSeed()
		if err == nil && w.Rank() == 0 {
			memSeed = cs
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if seeds[r] != memSeed {
			t.Fatalf("rank %d common seed %#x != mem run %#x", r, seeds[r], memSeed)
		}
	}
	// Hypercube at p=4 is 4 edges; the dialed counts across nodes sum to
	// exactly that (plus 0 — CommonSeed's broadcast stays on edges).
	var dialed int64
	for _, n := range nodes {
		sent, recv := n.WireBytes()
		if sent == 0 && recv == 0 {
			t.Fatalf("a node moved no bytes")
		}
		dialed += n.DialsAttempted()
	}
	var connsTotal int64
	for _, n := range nodes {
		connsTotal += n.ConnsOpen()
	}
	// ConnsOpen counts a link at its dialer, so the per-node values add
	// up to the run's connections.
	const edges = 4
	if want := int64(edges); connsTotal != want {
		t.Fatalf("sum of per-node ConnsOpen = %d, want %d", connsTotal, want)
	}
	if dialed < edges {
		t.Fatalf("DialsAttempted sum %d below edge count", dialed)
	}
}

// TestTwoProcessRoundTrip runs a real second OS process: the test
// re-execs itself as rank 1 (helper-process pattern) while the parent
// serves the rendezvous and runs rank 0, and both sides must agree on
// an allreduce and the common seed.
func TestTwoProcessRoundTrip(t *testing.T) {
	if os.Getenv("DIST_LAUNCH_HELPER") == "1" {
		return // the helper entry point is TestLaunchHelperChild
	}
	addr, done := startRendezvous(t, 2, 15*time.Second)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestLaunchHelperChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"DIST_LAUNCH_HELPER=1",
		"DIST_LAUNCH_RDV="+addr,
	)
	out := &strings.Builder{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	node, err := Join(LaunchConfig{Rank: 0, P: 2, Rendezvous: addr,
		Config: Config{Topology: comm.TopoHypercube, Timeout: 20 * time.Second}})
	if err != nil {
		t.Fatalf("parent join: %v", err)
	}
	defer node.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var sum, cs uint64
	err = RunLocal(node, 0, 7, func(w *Worker) error {
		c, err := w.CommonSeed()
		if err != nil {
			return err
		}
		cs = c
		got, err := w.Coll.AllReduce([]uint64{100}, collective.OpSum)
		if err != nil {
			return err
		}
		sum = got[0]
		return nil
	})
	if err != nil {
		t.Fatalf("parent run: %v (child output so far: %s)", err, out.String())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out.String())
	}
	if sum != 300 {
		t.Fatalf("parent allreduce = %d, want 300", sum)
	}
	marker := fmt.Sprintf("CHILD-OK sum=300 cs=%#x", cs)
	if !strings.Contains(out.String(), marker) {
		t.Fatalf("child output missing %q:\n%s", marker, out.String())
	}
}

// TestLaunchHelperChild is the rank-1 process of TestTwoProcessRoundTrip;
// it only does anything when re-exec'd with the helper environment.
func TestLaunchHelperChild(t *testing.T) {
	if os.Getenv("DIST_LAUNCH_HELPER") != "1" {
		t.Skip("helper entry point")
	}
	addr := os.Getenv("DIST_LAUNCH_RDV")
	node, err := Join(LaunchConfig{Rank: 1, P: 2, Rendezvous: addr,
		Config: Config{Topology: comm.TopoHypercube, Timeout: 20 * time.Second}})
	if err != nil {
		t.Fatalf("child join: %v", err)
	}
	defer node.Close()
	err = RunLocal(node, 1, 7, func(w *Worker) error {
		cs, err := w.CommonSeed()
		if err != nil {
			return err
		}
		got, err := w.Coll.AllReduce([]uint64{200}, collective.OpSum)
		if err != nil {
			return err
		}
		fmt.Printf("CHILD-OK sum=%s cs=%#x\n", strconv.FormatUint(got[0], 10), cs)
		return nil
	})
	if err != nil {
		t.Fatalf("child run: %v", err)
	}
}
