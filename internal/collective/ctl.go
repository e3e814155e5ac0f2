package collective

import (
	"time"

	"repro/internal/comm"
)

// Control plane: the membership/failure-detector traffic rides on a
// dedicated tag region ([ctlTagBase, comm.KickTag)) of the endpoint's
// tag space, one tag per *sending* PE, so heartbeats and view-change
// announcements between any pair of PEs form a single FIFO stream that
// can never collide with collective, user, or sub-communicator traffic.
// All ranks here are PHYSICAL endpoint ranks: membership runs beneath
// views — it is the thing that decides what the view is — and must keep
// addressing peers by wire rank across epochs. Control traffic bypasses
// per-communicator metering; it is infrastructure, not job cost.

// ctlTag returns the control tag of the stream originating at physical
// rank src.
func ctlTag(src int) int { return int(ctlTagBase) + src }

// SendCtl sends a control message to physical rank dst on this PE's
// control stream.
func (c *Comm) SendCtl(dst int, words []uint64) error {
	return c.mux.Send(dst, ctlTag(c.mux.Endpoint().Rank()), U64sToBytes(words))
}

// RecvCtl receives the next control message from physical rank src,
// waiting at most timeout (non-positive waits indefinitely). A quiet
// peer surfaces as comm.ErrRecvDeadline — the probe signal failure
// detectors act on — while the stream stays healthy for re-probing.
func (c *Comm) RecvCtl(src int, timeout time.Duration) ([]uint64, error) {
	buf, err := c.mux.RecvDeadline(src, ctlTag(src), timeout)
	if err != nil {
		return nil, err
	}
	words, err := BytesToU64s(buf)
	comm.PutPayload(buf)
	return words, err
}

// PoisonCtl fails every current and future RecvCtl from physical rank
// src with err and drops that stream's queued messages — how a
// detector retires the control stream of a peer declared dead (or shuts
// its own listeners down).
func (c *Comm) PoisonCtl(src int, err error) {
	c.mux.PoisonRange(ctlTag(src), ctlTag(src)+1, err)
}

// KickSelf sends this PE's endpoint a control kick, completing a pull
// currently parked in RecvAny so the puller re-examines mux state — the
// companion to PoisonCtl when shutting listeners down on an idle mesh.
func (c *Comm) KickSelf() error {
	ep := c.mux.Endpoint()
	return ep.Send(ep.Rank(), comm.KickTag, nil)
}
