package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// The failure detector of an elastic pool. Every live rank sends an
// empty control message each Heartbeat to its ring successor in the
// pool's view and watches only its ring predecessor's control stream;
// a full SuspectAfter of silence from the predecessor convicts it. The
// pool's view is the only membership view, so a conviction is one
// update under p.mu, and every survivor re-keys its checkers on it.
//
// Death is silence, not an error: a crashed peer's messages simply stop
// (survivors' sends to it are blackholed by the transport), which is
// why detection is driven by heartbeat absence rather than send
// failures. Views only shrink, so a rank's predecessor changes only
// when that predecessor is convicted; the watcher then starts a fresh
// window on the new one, which until then was heartbeating the dead
// rank, and never charges it that legitimate silence.

// errDetectorStopped poisons every control stream when the pool closes.
var errDetectorStopped = errors.New("service: failure detector stopped")

// detector is an elastic pool's failure-detector state.
type detector struct {
	stop       chan struct{} // closed by Close
	wg         sync.WaitGroup
	heartbeats atomic.Int64 // heartbeats sent, all ranks
}

// withDefaults fills the zero fields: a 50 ms heartbeat, and a
// suspicion window of 20 heartbeats — wide enough that scheduler
// hiccups under load or the race detector never convict a live peer.
func (e ElasticOptions) withDefaults() ElasticOptions {
	if e.Heartbeat <= 0 {
		e.Heartbeat = 50 * time.Millisecond
	}
	if e.SuspectAfter <= 0 {
		e.SuspectAfter = 20 * e.Heartbeat
	}
	return e
}

// startDetector launches one heartbeat and one watcher goroutine per
// rank, 2p in all. A single-PE pool has nobody to watch.
func (p *Pool) startDetector() {
	p.det.stop = make(chan struct{})
	if p.opts.P < 2 {
		return
	}
	for r := range p.workers {
		p.det.wg.Add(2)
		go p.beat(r)
		go p.watch(r)
	}
}

// stopDetector ends the detector: heartbeats stop, every control
// stream is poisoned and every endpoint kicked so parked watchers
// return, and all detector goroutines are awaited.
func (p *Pool) stopDetector() {
	close(p.det.stop)
	for r, w := range p.workers {
		for src := range p.workers {
			if src != r {
				w.Coll.PoisonCtl(src, errDetectorStopped)
			}
		}
		_ = w.Coll.KickSelf()
	}
	p.det.wg.Wait()
}

// neighbour returns rank r's ring neighbour in the pool's view — the
// successor for step 1, the predecessor for -1 — or -1 once r has left
// the view or is alone in it, which is final: views only shrink.
func (p *Pool) neighbour(r, step int) int {
	v := p.View()
	i, n := v.Index(r), v.Size()
	if i < 0 || n < 2 {
		return -1
	}
	return v.Members()[(i+step+n)%n]
}

// beat heartbeats rank r's ring successor every Heartbeat. The
// successor is re-read per tick, so a view change redirects the stream
// within one period.
func (p *Pool) beat(r int) {
	defer p.det.wg.Done()
	t := time.NewTicker(p.opts.Elastic.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-p.det.stop:
			return
		case <-t.C:
		}
		succ := p.neighbour(r, 1)
		if succ < 0 || p.workers[r].Coll.SendCtl(succ) != nil {
			// r left the view, or its endpoint is gone (the network
			// closed, or r itself crashed): nothing left to probe.
			return
		}
		p.det.heartbeats.Add(1)
	}
}

// watch suspects rank r's ring predecessor: a SuspectAfter with no
// heartbeat from it convicts it, and the watcher moves on to the new
// predecessor.
func (p *Pool) watch(r int) {
	defer p.det.wg.Done()
	coll := p.workers[r].Coll
	for {
		pred := p.neighbour(r, -1)
		if pred < 0 {
			return
		}
		err := coll.RecvCtl(pred, p.opts.Elastic.SuspectAfter)
		var down *comm.PeerDownError
		switch {
		case err == nil:
			// A heartbeat: the next RecvCtl opens a fresh window.
		case errors.Is(err, comm.ErrRecvDeadline):
			select {
			case <-p.det.stop:
				return
			default:
			}
			if p.neighbour(r, -1) == pred {
				p.convict(pred)
			}
		case errors.As(err, &down):
			// pred is out of the view: watch its successor instead.
		default:
			return // the pool closed, or r's endpoint is gone
		}
	}
}

// convict removes dead from the pool's view, then wakes whatever the
// death strands: the dead rank's control stream is poisoned on every
// worker with its PeerDownError, and every live endpoint is kicked, so
// a watcher parked on the dead rank moves on to its new predecessor and
// in-flight jobs touching the dead rank observe their aborts promptly
// even on an idle mesh. Convicting a rank already out of the view is a
// no-op.
func (p *Pool) convict(dead int) {
	p.mu.Lock()
	if !p.view.Contains(dead) {
		p.mu.Unlock()
		return
	}
	p.view = p.view.Remove(dead)
	p.viewChanges++
	close(p.viewChangedCh)
	p.viewChangedCh = make(chan struct{})
	p.mu.Unlock()
	down := &comm.PeerDownError{Rank: dead}
	for _, w := range p.workers {
		w.Coll.PoisonCtl(dead, down)
	}
	p.kickAll()
}
