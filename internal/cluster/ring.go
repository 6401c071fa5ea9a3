// Package cluster is the horizontal scale-out layer behind veriopt
// serve: a coordinator process that spreads verification queries
// across N worker replicas by consistent-hashing the query
// fingerprint — vcache.Key.Fingerprint, the digest the verdict cache
// and the durable store key on — so each (src, dst, opts) triple lands
// on one replica and that replica's hot cache and on-disk store
// accumulate exactly the verdicts it will be asked for again. Only the
// coordinator hashes onto the ring, so placement is a matter of one
// process: a build whose digest differs routes keys to other replicas,
// which then miss and verify once, and is never wrong.
//
// The pieces:
//
//   - ring: a consistent-hash ring with virtual nodes. order(key)
//     returns the full distinct-replica preference order for a key, so
//     a retry walks to the key's successor instead of re-rolling.
//   - Coordinator: implements oracle.Remote over the ring — per-replica
//     bounded HTTP clients, one attempt at a time under the caller's
//     deadline, retry-with-backoff re-routing on replica failure, and
//     /healthz probing that heals the ring. Identical queries in
//     flight are coalesced above it, by the stack's verdict cache.
//   - MetricsText: the coordinator's /metrics section — ring and
//     health gauges and per-replica request/error/retry counters, read
//     off the coordinator's own state.
//
// The coordinator enters the oracle stack as oracle.Config.Remote,
// inside the local verdict cache and in front of the local base, so
// memoized verdicts never touch the network and a dead cluster
// degrades to local verification rather than an outage.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per replica. 64 points per
// replica keeps the ring's load spread within a few percent of even
// for small fleets while the whole ring stays a few KB.
const vnodes = 64

type ringPoint struct {
	hash uint64
	idx  int
}

// ring is an immutable consistent-hash ring over a fixed replica set.
// Health is deliberately not the ring's concern: the ring answers
// "which replicas, in what order, does this key prefer", and the
// coordinator reorders that answer healthy-first. Keeping the ring
// immutable means a flapping replica never remaps keys owned by
// stable replicas — it is skipped, not removed.
type ring struct {
	points []ringPoint
	n      int
}

// newRing builds a ring over replicas (identified by index) with
// vnodes virtual points each. The point hashes are derived from the
// replica's base URL so the same fleet listed in any order produces
// the same key placement.
func newRing(replicas []string) *ring {
	r := &ring{n: len(replicas), points: make([]ringPoint, 0, len(replicas)*vnodes)}
	for i, url := range replicas {
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(url + "#" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// order returns the key's full preference order: the owner replica
// first, then each distinct successor walking clockwise from the
// key's point. len == the replica count, every index exactly once.
// Retries consume this order left to right, so a key's fallback
// placement is as stable as its primary placement.
func (r *ring) order(key [sha256.Size]byte) []int {
	order := make([]int, 0, r.n)
	if r.n == 0 {
		return order
	}
	h := binary.BigEndian.Uint64(key[:8])
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.n)
	for i := 0; len(order) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			order = append(order, p.idx)
		}
	}
	return order
}
