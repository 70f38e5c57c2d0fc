// Per-replica health: the router tracks every worker replica with two
// atomics — a consecutive-failure counter and an ejected flag — so the
// serving hot path reads health without locks. Ejection is demand-driven
// (failures observed by real requests), reinstatement is probe-driven
// (a background GET /healthz), which gives the classic asymmetry a
// load balancer wants: a replica falls out of rotation the moment it
// costs requests, and comes back only once it proves healthy without
// risking live traffic to find out.
package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"
)

// replica is one worker address plus its health state.
type replica struct {
	addr string
	// fails counts consecutive failed attempts; any success zeroes it.
	fails atomic.Int32
	// ejected marks the replica out of rotation; the prober owns the
	// transition back.
	ejected atomic.Bool
}

// fail records one failed attempt, ejecting the replica when it crosses
// the consecutive-failure threshold.
func (rep *replica) fail(rt *Router) {
	if int(rep.fails.Add(1)) >= rt.cfg.FailThreshold {
		if rep.ejected.CompareAndSwap(false, true) {
			rt.ejections.Add(1)
			rt.cfg.Logf("replica %s ejected after %d consecutive failures", rep.addr, rt.cfg.FailThreshold)
		}
	}
}

// succeed records one successful attempt, clearing the failure streak and
// reinstating an ejected replica (a success is as good as a probe).
func (rep *replica) succeed(rt *Router) {
	rep.fails.Store(0)
	if rep.ejected.CompareAndSwap(true, false) {
		rt.reinstatements.Add(1)
		rt.cfg.Logf("replica %s reinstated", rep.addr)
	}
}

// shardState is one shard's replica set plus a rotation counter so
// consecutive requests spread across healthy replicas.
type shardState struct {
	id       int
	replicas []*replica
	rr       atomic.Uint64
}

// order returns the replicas to try, healthy ones first (rotated so load
// spreads), then ejected ones as a last resort — when every replica of a
// shard is ejected the router still tries rather than failing without a
// single packet sent.
func (ss *shardState) order(dst []*replica) []*replica {
	n := len(ss.replicas)
	start := int(ss.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		if rep := ss.replicas[(start+i)%n]; !rep.ejected.Load() {
			dst = append(dst, rep)
		}
	}
	for i := 0; i < n; i++ {
		if rep := ss.replicas[(start+i)%n]; rep.ejected.Load() {
			dst = append(dst, rep)
		}
	}
	return dst
}

// ProbeOnce runs one probe round: finish the geometry handshake if it is
// still incomplete, then probe every ejected replica's GET /healthz and
// reinstate the ones that answer 200. A draining worker answers 503
// there, so a replica mid-teardown stays ejected instead of flapping.
func (rt *Router) ProbeOnce(ctx context.Context) {
	if rt.geo.Load() == nil {
		rt.geoMu.Lock()
		rt.refreshGeometryLocked(ctx)
		rt.geoMu.Unlock()
	}
	for _, ss := range rt.shards {
		for _, rep := range ss.replicas {
			if !rep.ejected.Load() {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
			_, status, err := rt.do(pctx, rep, "/healthz", nil, smallReplyLimit)
			cancel()
			if err == nil && status == http.StatusOK {
				rep.succeed(rt)
			}
		}
	}
}

// probeLoop runs ProbeOnce every ProbeInterval until ctx is canceled.
func (rt *Router) probeLoop(ctx context.Context) {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.ProbeOnce(ctx)
		}
	}
}
