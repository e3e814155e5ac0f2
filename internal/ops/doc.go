// Package ops implements the distributed operations the checkers verify,
// following Thrill's operation vocabulary (Section 1/2 of the paper):
// ReduceByKey (sum/count aggregation), GroupByKey, sample Sort, Merge,
// Zip, Union, the hash Join (RedistributeByKey of both relations, then
// the local JoinPairs), and the derived aggregations MinByKey, MaxByKey,
// AverageByKey and the per-key median (GroupByKey, then MedianOfSorted2
// of every group).
//
// Every operation is SPMD: it is called with a dist.Worker and this PE's
// local share of the input, and returns this PE's local share of the
// output. Operations are deliberately independent of the checkers — the
// checkers treat them as black boxes (invasive checkers observe only the
// declared redistribution interfaces).
//
// Most operations share one data plane, the pooled kernel of
// kernel.go: a byte-native partition/exchange that computes each
// element's PE once and writes it onto the wire once, and buffers that
// circulate between sender, transport and receiver. On it the
// key-partitioned operations (ReduceByKey, GroupByKey,
// RedistributeByKey) put an open-addressing combine table and a radix
// sort of the result by key; the sequence operations put a sample sort
// that sorts each element once, where it ends up (Sort, Merge: classify
// against sampled splitters, exchange, radix sort), or contiguous index
// ranges decoded in source order (Zip, which sends only the stretches
// that overlap a destination's range). Union is Thrill's: local, it
// sends nothing.
//
// Not all of them do yet: MinByKey, MaxByKey and AverageByKey exchange
// through the word AllToAll and combine in Go maps, and the local
// GroupPairs and JoinPairs group and build in maps (ROADMAP item 6,
// "Map-plane leftovers onto the pooled kernel").
package ops
