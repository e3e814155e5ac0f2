// Package ops implements the distributed operations the checkers verify,
// following Thrill's operation vocabulary (Section 1/2 of the paper):
// ReduceByKey (sum/count aggregation), GroupByKey, sample Sort, Merge,
// Zip, Union, hash Join, and the derived aggregations MinByKey,
// MaxByKey, MedianByKey and AverageByKey.
//
// Every operation is SPMD: it is called with a dist.Worker and this PE's
// local share of the input, and returns this PE's local share of the
// output. Operations are deliberately independent of the checkers — the
// checkers treat them as black boxes (invasive checkers observe only the
// declared redistribution interfaces).
//
// The key-partitioned operations (ReduceByKey, GroupByKey, Join,
// RedistributeByKey) share one data plane, the pooled kernel of
// kernel.go: an open-addressing combine table, a byte-native
// partition/exchange that computes each key's PE once, and buffers
// that circulate between sender, transport and receiver.
package ops
