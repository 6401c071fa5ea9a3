// Package cluster is the horizontal scale-out layer behind veriopt
// serve: a coordinator process that spreads verification queries
// across N worker replicas by rendezvous-hashing the query
// fingerprint — vcache.Key.Fingerprint, the digest the verdict cache
// and the durable store key on — so each (src, dst, opts) triple lands
// on one replica and that replica's hot cache and on-disk store
// accumulate exactly the verdicts it will be asked for again. Only the
// coordinator hashes keys onto replicas, so placement is a matter of
// one process: a build whose digest differs routes keys to other
// replicas, which then miss and verify once, and is never wrong.
//
// The pieces:
//
//   - order: rendezvous (highest-random-weight) hashing. Each replica
//     scores each key by its URL alone, and order(key) lists every
//     replica healthy first, each class by falling score, so a retry
//     walks to the key's next-best replica instead of re-rolling.
//   - Coordinator: implements oracle.Remote over that order —
//     per-replica bounded HTTP clients, one attempt at a time under the
//     caller's deadline, retry-with-backoff re-routing on replica
//     failure, and /healthz probing that re-promotes. Identical
//     queries in flight are coalesced above it, by the verdict cache.
//   - MetricsText: the coordinator's /metrics section — replica and
//     health gauges and per-replica request/error/retry counters, read
//     off the coordinator's own state.
//
// The coordinator enters the oracle stack as oracle.Config.Remote,
// inside the local verdict cache and in front of the local base, so
// memoized verdicts never touch the network and a dead cluster
// degrades to local verification rather than an outage.
package cluster

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// score is a key's weight on the replica with the given seed:
// splitmix64's finalizer over the key's first 8 bytes XOR the seed.
// The finalizer is a bijection, so two replicas tie only when their
// seeds do, that is when one URL is listed twice.
func score(key, seed uint64) uint64 {
	z := key ^ seed
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// order returns the key's full preference order: every replica index
// once, healthy replicas before demoted ones, each class by falling
// score, ties by listing order. Each replica's health is read once, so
// a flag flipping under the call cannot drop a replica from the order
// or list it twice. A fully demoted fleet keeps score order — the
// attempt itself is the cheapest probe. Health never changes a score,
// so a flapping replica never remaps keys owned by stable ones: it is
// skipped, not removed.
func (c *Coordinator) order(key [sha256.Size]byte) []int {
	k := binary.BigEndian.Uint64(key[:8])
	order := make([]int, len(c.reps))
	healthy, demoted := 0, len(order)
	for i, rep := range c.reps {
		if rep.healthy.Load() {
			order[healthy] = i
			healthy++
		} else {
			demoted--
			order[demoted] = i
		}
	}
	byScore := func(a, b int) int {
		return cmp.Or(cmp.Compare(score(k, c.reps[b].seed), score(k, c.reps[a].seed)), cmp.Compare(a, b))
	}
	slices.SortFunc(order[:healthy], byScore)
	slices.SortFunc(order[healthy:], byScore)
	return order
}
