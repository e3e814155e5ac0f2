package collective

import (
	"time"

	"repro/internal/comm"
)

// Control plane: the elastic pool's failure detector sends payload-free
// heartbeats on a dedicated tag region ([ctlTagBase, comm.KickTag)) of
// the endpoint's tag space, one tag per *sending* PE, so the heartbeats
// between any pair of PEs form a single FIFO stream that can never
// collide with collective, user, or sub-communicator traffic. An empty
// message carries nothing a bit flip could forge: its arrival is the
// whole signal. All ranks here are PHYSICAL endpoint ranks: the
// detector runs beneath views — it is the thing that decides what the
// view is — and must keep addressing peers by wire rank across epochs.
// Control traffic bypasses per-communicator metering; it is
// infrastructure, not job cost.

// ctlTag returns the control tag of the stream originating at physical
// rank src.
func ctlTag(src int) int { return int(ctlTagBase) + src }

// SendCtl sends one heartbeat to physical rank dst on this PE's control
// stream.
func (c *Comm) SendCtl(dst int) error {
	return c.mux.Send(dst, ctlTag(c.mux.Endpoint().Rank()), nil)
}

// RecvCtl waits at most timeout (non-positive waits indefinitely) for
// the next heartbeat from physical rank src. A quiet peer surfaces as
// comm.ErrRecvDeadline — the signal a failure detector acts on — while
// the stream stays healthy for re-probing.
func (c *Comm) RecvCtl(src int, timeout time.Duration) error {
	buf, err := c.mux.RecvDeadline(src, ctlTag(src), timeout)
	comm.PutPayload(buf)
	return err
}

// PoisonCtl fails every current and future RecvCtl from physical rank
// src with err and drops that stream's queued heartbeats — how the
// detector retires the stream of a peer declared dead (or shuts its
// watchers down).
func (c *Comm) PoisonCtl(src int, err error) {
	c.mux.PoisonRange(ctlTag(src), ctlTag(src)+1, err)
}

// KickSelf sends this PE's endpoint a control kick, completing a pull
// currently parked in RecvAny so the puller re-examines mux state — the
// companion to PoisonCtl when shutting watchers down on an idle mesh.
func (c *Comm) KickSelf() error {
	ep := c.mux.Endpoint()
	return ep.Send(ep.Rank(), comm.KickTag, nil)
}
