package main

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestCommandTable checks the invariants dispatch, usage and `all`
// rely on: every row is complete, names are unique, and the usage text
// shows every row.
func TestCommandTable(t *testing.T) {
	cmds := commands()
	var text bytes.Buffer
	usage(&text, cmds)
	seen := map[string]bool{}
	for _, c := range cmds {
		if c.name == "" || c.help == "" || c.run == nil {
			t.Errorf("incomplete row %+v", c)
		}
		if strings.Contains(c.help, "\n") {
			t.Errorf("%s: help is not one line", c.name)
		}
		if seen[c.name] {
			t.Errorf("subcommand %q declared twice", c.name)
		}
		seen[c.name] = true
		if !strings.Contains(text.String(), "  "+c.name+" ") || !strings.Contains(text.String(), c.help) {
			t.Errorf("usage text lacks %q", c.name)
		}
	}
	if !seen["all"] {
		t.Error("no `all` row")
	}
}

// TestRunExitCodes drives dispatch over a fake table: a missing or
// unknown name prints the usage text and exits 2 without running
// anything, a failing subcommand exits 1 with its error, and a
// subcommand receives exactly the arguments after its name.
func TestRunExitCodes(t *testing.T) {
	var got []string
	cmds := []subcommand{
		{"ok", "succeeds", func(args []string) error { got = args; return nil }, false},
		{"bad", "fails", func([]string) error { return errors.New("boom") }, false},
	}
	for _, args := range [][]string{nil, {"bench"}, {"stream", "-chunk", "8"}} {
		var stderr bytes.Buffer
		if code := run(cmds, args, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: repro") || !strings.Contains(stderr.String(), "succeeds") {
			t.Errorf("run(%q) printed no usage text: %q", args, stderr.String())
		}
	}
	if got != nil {
		t.Errorf("an unknown name ran a subcommand with %q", got)
	}
	var stderr bytes.Buffer
	if code := run(cmds, []string{"ok", "-x", "1"}, &stderr); code != 0 || stderr.Len() != 0 {
		t.Errorf("ok: code %d, stderr %q", code, stderr.String())
	}
	if !reflect.DeepEqual(got, []string{"-x", "1"}) {
		t.Errorf("ok received %q", got)
	}
	if code := run(cmds, []string{"bad"}, &stderr); code != 1 || !strings.Contains(stderr.String(), "repro: boom") {
		t.Errorf("bad: code %d, stderr %q", code, stderr.String())
	}
	// The real table rejects the deleted subcommands the same way.
	if code := run(commands(), []string{"bench"}, &stderr); code != 2 {
		t.Errorf("the deleted bench subcommand = %d, want 2", code)
	}
}

// TestAllRunsOnlyMarkedRows: `all` runs the inAll rows, in table order,
// with no arguments, stops at the first failure and names it.
func TestAllRunsOnlyMarkedRows(t *testing.T) {
	var ran []string
	row := func(name string, inAll bool, err error) subcommand {
		return subcommand{name, "help", func(args []string) error {
			if args != nil {
				t.Errorf("%s got arguments %q from all", name, args)
			}
			ran = append(ran, name)
			return err
		}, inAll}
	}
	cmds := []subcommand{row("a", true, nil), row("serve", false, nil), row("b", true, nil)}
	if err := runAll(cmds); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []string{"a", "b"}) {
		t.Errorf("all ran %q, want [a b]", ran)
	}
	ran = nil
	boom := errors.New("boom")
	cmds = []subcommand{row("a", true, boom), row("b", true, nil)}
	if err := runAll(cmds); !errors.Is(err, boom) || !strings.Contains(err.Error(), "a:") {
		t.Errorf("all error = %v", err)
	}
	if !reflect.DeepEqual(ran, []string{"a"}) {
		t.Errorf("all continued past a failure: %q", ran)
	}
	// In the real table, all covers the paper's experiments and none of
	// the long-running service modes (nor itself).
	for _, c := range commands() {
		service := c.name == "serve" || c.name == "soak" || c.name == "launch" || c.name == "all"
		if c.inAll == service {
			t.Errorf("%s: inAll = %v", c.name, c.inAll)
		}
	}
}

// TestGolden pins what five subcommands print, byte for byte, each
// against testdata/<name>.golden: every optimum of the paper's Table 2
// and the min vol row under it, Table 6's manipulators, a small seeded
// Fig. 3 sweep — every sum-checker configuration's failure count under
// every manipulator — the same for Fig. 5's hash sums, and the modeled
// makespans of a small job on the simulated network, which only virtual
// clocks decide.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"table2", nil},
		{"table6", nil},
		{"fig3", []string{"-elements", "200", "-min-runs", "50", "-max-runs", "50", "-seed", "7"}},
		{"fig5", []string{"-elements", "2000", "-min-runs", "200", "-max-runs", "200", "-seed", "7"}},
		{"modeled", []string{"-items", "200", "-pes", "8,16"}},
	} {
		want, err := os.ReadFile("testdata/" + tc.name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := captureStdout(t, func() error { return lookup(t, tc.name).run(tc.args) })
		if got != string(want) {
			t.Errorf("repro %s %q printed\n%s\nwant (testdata/%s.golden)\n%s", tc.name, tc.args, got, tc.name, want)
		}
	}
}

// lookup returns the subcommand table's row called name.
func lookup(t *testing.T, name string) subcommand {
	for _, c := range commands() {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no subcommand %q", name)
	return subcommand{}
}

// captureStdout returns what run prints to standard output.
func captureStdout(t *testing.T, run func() error) string {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}
