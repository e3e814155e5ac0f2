package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// check reaches a verdict the way every caller does: draw the common
// seed, build this PE's states with mk and resolve them in one round.
// The verdict is the AND of the states' verdicts.
func check(w *dist.Worker, mk ...func(seed uint64) CheckState) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	states := make([]CheckState, len(mk))
	for i, m := range mk {
		states[i] = m(seed)
	}
	vs, err := Resolve(w, states...)
	ok := err == nil
	for _, v := range vs {
		ok = ok && v
	}
	return ok, err
}

// stateDigest renders what a state contributes to a resolution: its
// word count, its local predicate and an FNV-1a digest of its words.
func stateDigest(st CheckState) string {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range st.Words() {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return fmt.Sprintf("words=%d ok=%v fnv=%016x", len(st.Words()), st.LocalOK(), h.Sum64())
}

// pinCase is one checker constructor over fixed inputs: mk builds
// rank's state of a p-PE run, over a corrupted result if corrupt.
type pinCase struct {
	name string
	want [2]string // stateDigest at p = 1, clean and corrupted
	mk   func(seed uint64, rank, p int, corrupt bool) CheckState
}

func pinCases() []pinCase {
	pairs := workload.ZipfPairs(400, 50, 1000, 7)
	sums := refSumAgg(pairs)
	counts := map[uint64]uint64{}
	for _, pr := range pairs {
		counts[pr.Key]++
	}
	countOut := data.MapToPairs(counts)
	avgs := buildAvgReference(pairs)
	distinct := distinctPairs(300, 20, 9)
	medians, _ := buildMedianReference(distinct)
	tied := workload.UniformPairs(300, 10, 7, 4)
	tiedMedians, ties := buildMedianReference(tied)
	xs := workload.UniformU64s(500, 1e8, 3)
	ys := shuffled(xs, 5)
	sorted := data.CloneU64s(xs)
	data.SortU64(sorted)
	za := workload.UniformU64s(300, 1e8, 11)
	zb := workload.UniformU64s(300, 1e8, 12)
	zipped := zipPairsOf(za, zb)

	// bad returns a corrupted copy of ps when corrupt is set.
	bad := func(ps []data.Pair, corrupt bool, f func([]data.Pair)) []data.Pair {
		if !corrupt {
			return ps
		}
		ps = data.ClonePairs(ps)
		f(ps)
		return ps
	}
	minmax := func(wantMin bool) func(seed uint64, rank, p int, corrupt bool) CheckState {
		return func(seed uint64, rank, p int, corrupt bool) CheckState {
			res, wit := buildMinReference(pairs, p, wantMin)
			// A too-small minimum or too-large maximum: its witness lacks it.
			res = bad(res, corrupt, func(ps []data.Pair) {
				if wantMin {
					ps[0].Value--
				} else {
					ps[0].Value++
				}
			})
			if wantMin {
				return NewMinAggState("Min", seed, rank, p, shardPairs(pairs, p, rank), res, wit)
			}
			return NewMaxAggState("Max", seed, rank, p, shardPairs(pairs, p, rank), res, wit)
		}
	}
	return []pinCase{
		// One 4×8 m7 table: 32 lanes × 8 bits = 4 words.
		{"SumAgg", [2]string{"words=4 ok=true fnv=0c8210784d8af5a5", "words=4 ok=true fnv=477aa3128e8a32af"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			out := bad(sums, corrupt, func(ps []data.Pair) { ps[0].Value++ })
			return NewSumAggState("Sum", smallCfg, seed, shardPairs(pairs, p, rank), shardPairs(out, p, rank))
		}},
		{"CountBuilder", [2]string{"words=4 ok=true fnv=0c8210784d8af5a5", "words=4 ok=true fnv=8ba4c297c5201a5b"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			out := bad(countOut, corrupt, func(ps []data.Pair) { ps[len(ps)-1].Value += 2 })
			return countState(smallCfg, seed, shardPairs(pairs, p, rank), shardPairs(out, p, rank))
		}},
		// Two tables, sum lane and count lane: 4 + 4 words.
		{"Avg", [2]string{"words=8 ok=true fnv=b9b23f3a46fd0825", "words=8 ok=true fnv=1e287415d2794a2f"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			as := avgs
			if corrupt {
				as = append([]AvgAssertion(nil), avgs...)
				as[0].AvgNum++
			}
			s, e := data.SplitEven(len(as), p, rank)
			return NewAvgAggState("Avg", smallCfg, seed, shardPairs(pairs, p, rank), as[s:e])
		}},
		{"Min", [2]string{"words=2 ok=true fnv=fcb21ca91c6cf625", "words=2 ok=false fnv=15280977c785c951"}, minmax(true)},
		{"Max", [2]string{"words=2 ok=true fnv=73fa549501497965", "words=2 ok=false fnv=94ca215da5a94d95"}, minmax(false)},
		// One table and the 2-word replica digest: 4 + 2 words.
		{"Median", [2]string{"words=6 ok=true fnv=183cb22b8025c35d", "words=6 ok=true fnv=6c96ffdb6384c6a3"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			ms := bad(medians, corrupt, func(ps []data.Pair) { ps[0].Value += 1 << 41 })
			return NewMedianAggState("Median", smallCfg, seed, rank, shardPairs(distinct, p, rank), ms, nil)
		}},
		// Balance and equality tables and the replica digest: 4 + 4 + 2 words.
		{"MedianTies", [2]string{"words=10 ok=true fnv=88b4d3d663e892b9", "words=10 ok=false fnv=6957bebdef1fe9b7"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			ms := tiedMedians
			if corrupt {
				ms = ms[1:] // a dropped key: its input elements have no median
			}
			return NewMedianAggState("MedianTies", smallCfg, seed, rank, shardPairs(tied, p, rank), ms, ties)
		}},
		// The default, one product iteration: one word, 1 when clean.
		{"PermProduct", [2]string{"words=1 ok=true fnv=89cd31291d2aefa4", "words=1 ok=true fnv=a61db754c5e38ed3"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			out := ys
			if corrupt {
				out = data.CloneU64s(ys)
				out[0] ^= 1
			}
			return NewPermState("Perm", permCfg, seed, [][]uint64{shardU64(xs, p, rank)}, shardU64(out, p, rank))
		}},
		// Redist and Sorted seal the same product: a clean Redist word is
		// 1, as PermProduct's, and Sorted's is 1 and the interval (has,
		// first, last, sorted) — swapping the ends clears its flag.
		{"Redist", [2]string{"words=1 ok=true fnv=89cd31291d2aefa4", "words=1 ok=true fnv=40cf0ab70764279f"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			loc := fixedLocator{p: p}
			var after []data.Pair
			for _, pr := range pairs {
				if loc.PE(pr.Key) == rank {
					after = append(after, pr)
				}
			}
			after = bad(after, corrupt && len(after) > 0, func(ps []data.Pair) { ps[0].Value ^= 1 << 13 })
			return NewRedistState("Redist", permCfg, seed, loc, rank, shardPairs(pairs, p, rank), after)
		}},
		{"Sorted", [2]string{"words=5 ok=true fnv=b8ba01f0fb1f8165", "words=5 ok=true fnv=9ea3d8461dddde88"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			out := sorted
			if corrupt {
				out = data.CloneU64s(sorted)
				out[0], out[len(out)-1] = out[len(out)-1], out[0]
			}
			return NewSortedState("Sorted", permCfg, seed, [][]uint64{shardU64(xs, p, rank)}, shardU64(out, p, rank))
		}},
		{"Zip", [2]string{"words=1 ok=true fnv=a8c7f832281a39c5", "words=1 ok=true fnv=ce18be258b1e2e73"}, func(seed uint64, rank, p int, corrupt bool) CheckState {
			out := bad(zipped, corrupt, func(ps []data.Pair) { ps[10], ps[11] = ps[11], ps[10] })
			start, _ := data.SplitEven(len(zipped), p, rank)
			return NewZipState("Zip", zipCfg, seed, shardU64(za, p, rank), shardU64(zb, p, rank), shardPairs(out, p, rank),
				uint64(start), uint64(start), uint64(start), true)
		}},
	}
}

// TestStateWordsPinned pins every checker constructor's contribution to
// a resolution — words, word count and local predicate — for a fixed
// seed and fixed inputs on one PE, over a clean and a corrupted result,
// so a change to how states are laid out cannot silently change what
// goes on the wire. It then resolves each checker at p = 3 over both.
func TestStateWordsPinned(t *testing.T) {
	const seed = 0x5eed
	for _, tc := range pinCases() {
		const p = 3
		for i, corrupt := range []bool{false, true} {
			if got := stateDigest(tc.mk(seed, 0, 1, corrupt)); got != tc.want[i] {
				t.Errorf("%s corrupt=%v: state %s, pinned %s", tc.name, corrupt, got, tc.want[i])
			}
			err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState { return tc.mk(seed, w.Rank(), p, corrupt) })
				if err != nil {
					return err
				}
				if ok == corrupt {
					t.Errorf("%s p=%d corrupt=%v: rank %d verdict %v", tc.name, p, corrupt, w.Rank(), ok)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
	}
}
