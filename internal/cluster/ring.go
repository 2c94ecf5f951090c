// Package cluster is the scale-out serving tier: a stateless gateway that
// consistent-hashes jobs across a pool of worker nodes, each running the
// existing server (internal/server) as a library behind its own HTTP
// listener. The gateway keys the ring on core.CacheKey — the content address
// of the index a job needs — so repeat references land on the worker whose
// cache already holds the built index (index affinity), the same amortization
// argument the paper makes for the FPGA's fixed setup cost, applied one level
// up.
//
// Robustness is the point of the package: workers heartbeat through
// /api/health, a per-worker circuit breaker evicts nodes that miss heartbeats
// and re-admits them after a cooldown, job forwarding retries with
// exponential backoff across ring replicas with the job's deadline budget
// shrinking as time elapses, and a worker that dies mid-job has its journaled
// submissions re-forwarded to the next replica on the ring — idempotently,
// so a duplicate forward never double-runs a job. With zero healthy workers
// the gateway degrades to serving jobs itself (standalone fallback).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVnodes is how many virtual points each worker occupies on the ring.
// More vnodes smooth the load distribution (relative skew shrinks roughly
// with 1/sqrt(vnodes)) at the cost of a larger sorted point list.
const defaultVnodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// worker.
type ringPoint struct {
	hash uint64
	node string
}

// ring is a consistent hash ring over worker names (URLs). Adding or
// removing a worker moves only the keys adjacent to its vnodes — the
// minimal-movement property that keeps index caches warm across membership
// changes. Safe for concurrent use.
type ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

// newRing creates an empty ring; vnodes <= 0 takes defaultVnodes.
func newRing(vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	return &ring{vnodes: vnodes, nodes: map[string]bool{}}
}

// ringHash positions a key (or vnode name) on the ring. FNV-1a alone
// avalanches poorly on short, similar inputs (vnode names differ by a
// suffix), and ring placement orders on the full 64-bit value — so the FNV
// sum is finished with a splitmix64-style mixer to spread the points
// uniformly.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a worker's vnodes; it reports false if the worker was already
// present.
func (r *ring) Add(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return false
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{ringHash(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, k int) bool { return r.points[i].hash < r.points[k].hash })
	return true
}

// Remove deletes a worker's vnodes; it reports false if the worker was not
// on the ring.
func (r *ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Lookup returns up to n distinct workers for key, ordered clockwise from
// the key's position: the first entry is the primary, the rest are the
// failover replicas in preference order. n < 0 means every worker. The order
// is a pure function of ring membership, so every gateway (and every retry)
// agrees on the replica chain.
func (r *ring) Lookup(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n == 0 {
		return nil
	}
	if n < 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(start+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
