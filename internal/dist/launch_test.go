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

// loopbackHosts binds p listeners on OS-assigned loopback ports and
// returns them with the host list that names them, the way spawn mode
// bootstraps its children.
func loopbackHosts(t *testing.T, p int) ([]net.Listener, []string) {
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

func TestJoinValidation(t *testing.T) {
	if _, err := Join(LaunchConfig{Rank: 0}); err == nil {
		t.Fatal("Join without hosts accepted")
	}
	if _, err := Join(LaunchConfig{Rank: 2, Hosts: []string{"a:1", "b:2"}}); err == nil {
		t.Fatal("Join with out-of-range rank accepted")
	}
	// Join owns a listener it is handed, so a rejected Join closes it.
	ls, hosts := loopbackHosts(t, 1)
	if _, err := Join(LaunchConfig{Rank: 1, Hosts: hosts, Listener: ls[0]}); err == nil {
		t.Fatal("Join with out-of-range rank accepted")
	}
	if _, err := ls[0].Accept(); err == nil {
		t.Fatal("a rejected Join left its listener open")
	}
	// Without a listener Join binds Hosts[Rank]; an address in use is a
	// named error.
	ls, hosts = loopbackHosts(t, 2)
	if _, err := Join(LaunchConfig{Rank: 0, Hosts: hosts}); err == nil || !strings.Contains(err.Error(), "listening on "+hosts[0]) {
		t.Fatalf("Join binding a taken address = %v, want a listen error naming it", err)
	}
}

// TestJoinHostListWorkers bootstraps four single-rank nodes from a host
// list on pre-bound listeners (all in this process, as four independent
// cores — the same code path four OS processes would take), runs a
// worker body on each via RunLocal, and checks collective results plus
// the connection bill: every pair linked once.
func TestJoinHostListWorkers(t *testing.T) {
	const p = 4
	ls, hosts := loopbackHosts(t, p)
	cfg := Config{Timeout: 30 * time.Second}
	nodes := make([]*comm.TCPNode, p)
	var joinWg sync.WaitGroup
	for r := 0; r < p; r++ {
		joinWg.Add(1)
		go func(r int) {
			defer joinWg.Done()
			node, err := Join(LaunchConfig{Rank: r, Hosts: hosts, Listener: ls[r], Config: cfg})
			if err != nil {
				t.Errorf("rank %d join: %v", r, err)
				return
			}
			nodes[r] = node
		}(r)
	}
	joinWg.Wait()
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
	if err := RunConfig(Config{}, p, 42, func(w *Worker) error {
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
	var dialed, connsTotal int64
	for _, n := range nodes {
		m := n.Meter()
		if m.WireSent == 0 && m.WireRecv == 0 {
			t.Fatalf("a node moved no bytes")
		}
		dialed += m.Dials
		connsTotal += m.ConnsOpen
	}
	// ConnsOpen counts a link at its dialer, so the per-node values add
	// up to the run's connections: p(p-1)/2.
	const edges = p * (p - 1) / 2
	if want := int64(edges); connsTotal != want {
		t.Fatalf("sum of per-node ConnsOpen = %d, want %d", connsTotal, want)
	}
	if dialed < edges {
		t.Fatalf("sum of per-node Dials %d below edge count", dialed)
	}
}

// TestTwoProcessRoundTrip runs a real second OS process: the test
// re-execs itself as rank 1 (helper-process pattern), handing it its
// bound listener as fd 3 and the host list in the environment, while
// the parent runs rank 0. Both sides must agree on an allreduce and the
// common seed.
func TestTwoProcessRoundTrip(t *testing.T) {
	if os.Getenv("DIST_LAUNCH_HELPER") == "1" {
		return // the helper entry point is TestLaunchHelperChild
	}
	ls, hosts := loopbackHosts(t, 2)
	f, err := ls[1].(*net.TCPListener).File()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestLaunchHelperChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"DIST_LAUNCH_HELPER=1",
		"DIST_LAUNCH_HOSTS="+strings.Join(hosts, ","),
	)
	cmd.ExtraFiles = []*os.File{f}
	out := &strings.Builder{}
	cmd.Stdout = out
	cmd.Stderr = out
	err = cmd.Start()
	f.Close()
	ls[1].Close()
	if err != nil {
		t.Fatal(err)
	}
	node, err := Join(LaunchConfig{Rank: 0, Hosts: hosts, Listener: ls[0],
		Config: Config{Timeout: 20 * time.Second}})
	if err != nil {
		t.Fatalf("parent join: %v", err)
	}
	defer node.Close()
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
	hosts, err := ParseHosts(os.Getenv("DIST_LAUNCH_HOSTS"))
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(3, "listener")
	l, err := net.FileListener(f)
	f.Close()
	if err != nil {
		t.Fatalf("child inheriting fd 3: %v", err)
	}
	node, err := Join(LaunchConfig{Rank: 1, Hosts: hosts, Listener: l,
		Config: Config{Timeout: 20 * time.Second}})
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
