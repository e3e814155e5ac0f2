package repro

import (
	"errors"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

func shard(ps []Pair, p, r int) []Pair {
	s, e := data.SplitEven(len(ps), p, r)
	return ps[s:e]
}

func shardU(xs []uint64, p, r int) []uint64 {
	s, e := data.SplitEven(len(xs), p, r)
	return xs[s:e]
}

func TestReduceByKeyChecked(t *testing.T) {
	global := workload.ZipfPairs(3000, 300, 1000, 1)
	want := data.PairsToMapSum(global)
	const p = 4
	total := make(map[uint64]uint64)
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Pairs(shard(global, p, w.Rank())).ReduceByKey(SumFn).Collect()
		if err != nil {
			return err
		}
		flat := make([]uint64, 0, 2*len(out))
		for _, pr := range out {
			flat = append(flat, pr.Key, pr.Value)
		}
		all, err := w.Coll.Gather(flat)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for _, ws := range all {
				for i := 0; i+2 <= len(ws); i += 2 {
					total[ws[i]] = ws[i+1]
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if total[k] != v {
			t.Fatalf("key %d: %d, want %d", k, total[k], v)
		}
	}
}

func TestSortChecked(t *testing.T) {
	global := workload.UniformU64s(3000, 1e9, 2)
	const p = 4
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Seq(shardU(global, p, w.Rank())).Sort().Collect()
		if err != nil {
			return err
		}
		if !data.IsSortedU64(out) {
			t.Errorf("rank %d share not sorted", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeAndUnionChecked(t *testing.T) {
	a := workload.UniformU64s(1000, 1e9, 3)
	b := workload.UniformU64s(1400, 1e9, 4)
	data.SortU64(a)
	data.SortU64(b)
	const p = 3
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		la, lb := shardU(a, p, w.Rank()), shardU(b, p, w.Rank())
		if _, err := ctx.Seq(la).Merge(ctx.Seq(lb)).Collect(); err != nil {
			return err
		}
		_, err = ctx.Seq(la).Union(ctx.Seq(lb)).Collect()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipChecked(t *testing.T) {
	a := workload.UniformU64s(2000, 1e9, 5)
	b := workload.UniformU64s(2000, 1e9, 6)
	const p = 4
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Seq(shardU(a, p, w.Rank())).Zip(ctx.Seq(shardU(b, p, w.Rank()))).Collect()
		if err != nil {
			return err
		}
		s, _ := data.SplitEven(len(a), p, w.Rank())
		for i, pr := range out {
			if pr.Key != a[s+i] || pr.Value != b[s+i] {
				t.Errorf("rank %d pair %d mismatched", w.Rank(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinMedianAverageChecked(t *testing.T) {
	global := workload.UniformPairs(2000, 25, 1000, 7)
	const p = 4
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		local := shard(global, p, w.Rank())
		if _, err := ctx.Pairs(local).MinByKey(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(local).MaxByKey(); err != nil {
			return err
		}
		medians, err := ctx.Pairs(local).MedianByKey()
		if err != nil {
			return err
		}
		if len(medians) == 0 {
			t.Error("no medians returned")
		}
		if _, err := ctx.Pairs(local).AverageByKey(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinAndGroupByChecked(t *testing.T) {
	left := workload.UniformPairs(800, 40, 100, 8)
	right := workload.UniformPairs(600, 40, 100, 9)
	const p = 3
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		if _, err := ctx.Pairs(shard(left, p, w.Rank())).Join(ctx.Pairs(shard(right, p, w.Rank()))); err != nil {
			return err
		}
		groups, err := ctx.Pairs(shard(left, p, w.Rank())).GroupByKey()
		if err != nil {
			return err
		}
		for i := 1; i < len(groups); i++ {
			if groups[i-1].Key >= groups[i].Key {
				t.Error("groups not sorted by key")
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckedWrapperSurfacesFaults corrupts one PE's share of a correct
// reduction, simulating a silent error inside the operation; the sum
// checker the stage uses must surface ErrCheckFailed.
func TestCheckedWrapperSurfacesFaults(t *testing.T) {
	global := workload.ZipfPairs(1000, 100, 100, 10)
	const p = 2
	err := Run(p, 1, func(w *Worker) error {
		local := shard(global, p, w.Rank())
		// Run the real operation, then corrupt this PE's output share
		// and verify directly via the checker the stage uses.
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Pairs(local).ReduceByKey(SumFn).Collect()
		if err != nil {
			return err
		}
		bad := data.ClonePairs(out)
		if w.Rank() == 0 && len(bad) > 0 {
			bad[0].Value += 99
		}
		okErr := checkAgainst(w, local, bad)
		if okErr == nil {
			t.Error("corrupted output accepted")
		} else if !errors.Is(okErr, ErrCheckFailed) {
			return okErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkAgainst runs the sum checker the way the ReduceByKey stage does.
func checkAgainst(w *Worker, input, output []Pair) error {
	ctx, err := NewContext(w, DefaultOptions())
	if err != nil {
		return err
	}
	return ctx.AssertSum(input, output)
}

// TestDefaultPermRejectsRectangle: the default permutation checker
// rejects a Rectangle — one byte position swapped between two elements,
// which a 3-independent hash sum lets through far above its delta — on
// every seed, at p in {1, 2, 3, 5}, streamed in chunks. Lemma 5's bound
// holds for every wrong output fixed before the seed is drawn.
func TestDefaultPermRejectsRectangle(t *testing.T) {
	const universe = 1 << 40
	global := workload.UniformU64s(3000, universe, 21)
	for _, p := range []int{1, 2, 3, 5} {
		for seed := uint64(0); seed < 20; seed++ {
			bad := data.CloneU64s(global)
			if !manipulate.Rectangle.Apply(bad, hashing.NewMT19937_64(seed^0x7ec7), universe) || !manipulate.ChangesMultiset(global, bad) {
				t.Fatalf("seed %d: no Rectangle injected", seed)
			}
			err := Run(p, seed, func(w *Worker) error {
				ctx, err := NewContext(w, DefaultOptions())
				if err != nil {
					return err
				}
				return ctx.StreamSeq(SliceSeq(shardU(global, p, w.Rank()), 256)).AssertPermutation(SliceSeq(shardU(bad, p, w.Rank()), 256))
			})
			if !errors.Is(err, ErrCheckFailed) {
				t.Fatalf("p=%d seed %d: Rectangle not rejected: %v", p, seed, err)
			}
		}
	}
}

// TestContractTableMatchesDefaults holds the contract table in
// internal/core/doc.go to DefaultOptions: the sum row names the default
// sum configuration, the ×k of the perm and zip rows is the default's
// iteration count, and every Test or Fuzz function the contract section
// cites exists in the module.
func TestContractTableMatchesDefaults(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "internal/core/doc.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, contract, ok := strings.Cut(f.Doc.Text(), "What each default construction is proven for:")
	if !ok {
		t.Fatal("internal/core/doc.go has no contract table")
	}
	contract, _, _ = strings.Cut(contract, "\n# ")
	// A row's first line starts with its first column; its continuation
	// lines are indented past that column.
	row := func(first string) string {
		m := regexp.MustCompile(`(?m)^\t` + regexp.QuoteMeta(first) + `\s{2,}(.*(?:\n\t .*)*)`).FindStringSubmatch(contract)
		if m == nil {
			t.Fatalf("contract table has no %q row", first)
		}
		return m[1]
	}
	times := func(first string) int {
		m := regexp.MustCompile(`[\s,]×(\d+)`).FindStringSubmatch(row(first))
		if m == nil {
			t.Fatalf("contract table row %q names no ×k", first)
		}
		k, _ := strconv.Atoi(m[1])
		return k
	}
	opts := DefaultOptions()
	if sum := row("sum, count"); !strings.HasPrefix(sum, opts.Sum.Name()+" ") {
		t.Errorf("contract table's sum row reads %q, DefaultOptions().Sum is %s", sum, opts.Sum.Name())
	}
	if got := times("perm, sort,"); got != opts.Perm.Iterations {
		t.Errorf("contract table's perm row says ×%d, DefaultOptions().Perm has %d iterations", got, opts.Perm.Iterations)
	}
	if got := times("zip"); got != opts.Zip.Iterations {
		t.Errorf("contract table's zip row says ×%d, DefaultOptions().Zip has %d iterations", got, opts.Zip.Iterations)
	}

	declared := map[string]bool{}
	for _, pattern := range []string{"*_test.go", "cmd/*/*_test.go", "internal/*/*_test.go"} {
		files, _ := filepath.Glob(pattern)
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`).FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`).FindAllString(contract, -1)
	if len(cited) == 0 {
		t.Fatal("the contract section cites no gate")
	}
	for _, name := range cited {
		if !declared[name] {
			t.Errorf("the contract section cites %s, which no test file declares", name)
		}
	}
}

// TestDefaultOptionsAchieveDocumentedDelta holds every default checker
// configuration to the failure probability DefaultOptions' comment
// states, and the sum checker to the one ChooseSum picks for it. The
// figure was 1.4e-9 while the default was the literal 6×32 CRC m9
// (1.34e-9); whoever changes a default, or the figure, changes both
// here.
func TestDefaultOptionsAchieveDocumentedDelta(t *testing.T) {
	const documented = 1e-9
	want, err := core.ChooseSum(documented, hashing.FamilyCRC)
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultOptions().Sum; got.Name() != want.Name() {
		t.Errorf("DefaultOptions().Sum is %s, ChooseSum(%g, CRC) is %s", got.Name(), documented, want.Name())
	}
	opts := DefaultOptions()
	if got := opts.Sum.AchievedDelta(); got > documented {
		t.Errorf("Sum %s achieves delta %.3g, documented as at most %.3g", opts.Sum.Name(), got, documented)
	}
	// The permutation default is one iteration of Lemma 5's product,
	// documented at 3n/r < 3.5e-10 for n <= 2^28 elements.
	if opts.Perm.Iterations != 1 {
		t.Errorf("DefaultOptions().Perm has %d iterations, documented as one product iteration", opts.Perm.Iterations)
	}
	if got := 3 * float64(1<<28) / float64(hashing.Mersenne61); got >= 3.5e-10 {
		t.Errorf("Perm achieves delta 3n/r = %.3g at n = 2^28, documented as < 3.5e-10", got)
	}
	// The zip default is one iteration of its polynomial identity,
	// documented at (n+1)/r < 1.2e-10 for n <= 2^28 positions.
	if opts.Zip.Iterations != 1 {
		t.Errorf("DefaultOptions().Zip has %d iterations, documented as one", opts.Zip.Iterations)
	}
	if got := float64(1<<28+1) / float64(hashing.Mersenne61); got >= 1.2e-10 {
		t.Errorf("Zip achieves delta (n+1)/r = %.3g at n = 2^28, documented as < 1.2e-10", got)
	}
}
