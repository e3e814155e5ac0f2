// Package recover implements checked recovery after a PE death: the
// lost rank's retained input chunks are redistributed to the survivors
// by hash and the move itself is verified with the paper's
// redistribution checker (Corollary 14) before any job is replayed.
// This is the point where the low-communication checkers become the
// integrity layer of the fault-tolerance path — partial re-execution in
// the sense of the MapReduce-verification literature, with the
// permutation/placement fingerprints guaranteeing the recovery moved no
// data wrong.
//
// The package has two halves: a Store that retains a recoverable job's
// input chunks (each PE keeps its own share plus a replica of its ring
// predecessor's, so a single death leaves every share held somewhere),
// and Reshard, the collective that moves a dead rank's chunks onto the
// survivor view under checker verification.
package recover

import (
	"sync"

	"repro/internal/data"
)

// DefaultChunkPairs is the retention chunk granularity: shares are cut
// into chunks of this many pairs, the unit the PR 5 builder partials
// accumulate and merge at.
const DefaultChunkPairs = 256

// Chunk is one retained piece of a recoverable job's input: Owner's
// Seq-th slice of its share.
type Chunk struct {
	JobID uint64
	Owner int // physical rank whose input this chunk belongs to
	Seq   int
	Pairs []data.Pair
}

// retention is everything one PE keeps for one recoverable job.
type retention struct {
	members []int // submit view, ascending physical ranks
	self    int
	own     []Chunk // this PE's share
	heldFor int     // physical rank whose replica we hold; -1 none
	held    []Chunk // the replica
}

// Store retains recoverable jobs' input chunks on one PE. It is
// owned by the service layer: Retain at submission, Held/Own during
// recovery, Drop at completion. Safe for concurrent use — jobs retain
// and drop from independent goroutines.
type Store struct {
	mu        sync.Mutex
	chunkSize int
	jobs      map[uint64]*retention
}

// NewStore builds an empty retention store cutting shares into chunks
// of chunkPairs pairs (<=0 selects DefaultChunkPairs).
func NewStore(chunkPairs int) *Store {
	if chunkPairs <= 0 {
		chunkPairs = DefaultChunkPairs
	}
	return &Store{chunkSize: chunkPairs, jobs: make(map[uint64]*retention)}
}

// chunk cuts pairs into owner's retention chunks. Pairs are copied:
// retained data must survive the caller mutating its share.
func (s *Store) chunk(jobID uint64, owner int, pairs []data.Pair) []Chunk {
	var out []Chunk
	for seq, off := 0, 0; off < len(pairs); seq++ {
		end := off + s.chunkSize
		if end > len(pairs) {
			end = len(pairs)
		}
		out = append(out, Chunk{
			JobID: jobID,
			Owner: owner,
			Seq:   seq,
			Pairs: append([]data.Pair(nil), pairs[off:end]...),
		})
		off = end
	}
	return out
}

// Retain records this PE's own share of a recoverable job, chunked.
// members is the submit-time view (ascending physical ranks) and self
// this PE's physical rank.
func (s *Store) Retain(jobID uint64, self int, members []int, share []data.Pair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[jobID]
	if r == nil {
		r = &retention{heldFor: -1}
		s.jobs[jobID] = r
	}
	r.members = append([]int(nil), members...)
	r.self = self
	r.own = s.chunk(jobID, self, share)
}

// RetainReplica records the replica of owner's share this PE holds (its
// ring predecessor's, received at submission).
func (s *Store) RetainReplica(jobID uint64, owner int, pairs []data.Pair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[jobID]
	if r == nil {
		r = &retention{heldFor: -1}
		s.jobs[jobID] = r
	}
	r.heldFor = owner
	r.held = s.chunk(jobID, owner, pairs)
}

// Own returns this PE's retained share chunks for the job (nil if the
// job was not retained here).
func (s *Store) Own(jobID uint64) []Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.jobs[jobID]; r != nil {
		return r.own
	}
	return nil
}

// Held returns the chunks this PE holds as dead's replica — non-empty
// only at dead's ring successor in the submit view, the single holder
// Reshard's AddInput side runs at.
func (s *Store) Held(jobID uint64, dead int) []Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.jobs[jobID]; r != nil && r.heldFor == dead {
		return r.held
	}
	return nil
}

// Members returns the submit-time view the job was retained under.
func (s *Store) Members(jobID uint64) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.jobs[jobID]; r != nil {
		return append([]int(nil), r.members...)
	}
	return nil
}

// Drop forgets a job's retention (call on completion, either outcome).
func (s *Store) Drop(jobID uint64) {
	s.mu.Lock()
	delete(s.jobs, jobID)
	s.mu.Unlock()
}

// ReplicaHolder returns the physical rank that holds owner's replica
// under the submit view: its ring successor. A single death therefore
// always leaves the dead share held by a survivor; when the holder died
// too (a double failure within one job), the job is unrecoverable.
func ReplicaHolder(members []int, owner int) int {
	for i, m := range members {
		if m == owner {
			return members[(i+1)%len(members)]
		}
	}
	return -1
}

// Pairs flattens chunks back into one share in Seq order (chunks are
// produced in Seq order, so concatenation suffices).
func Pairs(chunks []Chunk) []data.Pair {
	var n int
	for _, c := range chunks {
		n += len(c.Pairs)
	}
	out := make([]data.Pair, 0, n)
	for _, c := range chunks {
		out = append(out, c.Pairs...)
	}
	return out
}
