package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// testKey derives a deterministic pseudo-random fingerprint from a
// counter (the ring only reads the first 8 bytes).
func testKey(i int) [sha256.Size]byte {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	return sha256.Sum256(seed[:])
}

// owner returns the key's primary replica index.
func (r *ring) owner(key [sha256.Size]byte) int { return r.order(key)[0] }

func urls(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "http://worker-" + string(rune('a'+i)) + ":8080"
	}
	return out
}

// TestRingOrderComplete: Order is a permutation of all replica
// indices, identical across independently built rings over the same
// fleet.
func TestRingOrderComplete(t *testing.T) {
	r1 := newRing(urls(4))
	r2 := newRing(urls(4))
	for i := 0; i < 200; i++ {
		k := testKey(i)
		o1, o2 := r1.order(k), r2.order(k)
		if len(o1) != 4 {
			t.Fatalf("order length = %d, want 4", len(o1))
		}
		seen := map[int]bool{}
		for _, idx := range o1 {
			if idx < 0 || idx >= 4 || seen[idx] {
				t.Fatalf("order %v is not a permutation", o1)
			}
			seen[idx] = true
		}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("rings disagree for key %d: %v vs %v", i, o1, o2)
			}
		}
	}
}

// TestRingBalance: with 64 virtual nodes each, no replica owns a wildly
// disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	const replicas, keys = 3, 3000
	r := newRing(urls(replicas))
	counts := make([]int, replicas)
	for i := 0; i < keys; i++ {
		counts[r.owner(testKey(i))]++
	}
	for i, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("replica %d owns %.0f%% of keys (counts %v)", i, frac*100, counts)
		}
	}
}

// TestRingConsistency: dropping one replica remaps only the keys it
// owned; every other key keeps its owner. This is the property that
// makes replica-local verdict caches survive fleet resizes.
func TestRingConsistency(t *testing.T) {
	full := newRing(urls(4))
	reduced := newRing(urls(4)[:3])
	remapped := 0
	for i := 0; i < 2000; i++ {
		k := testKey(i)
		before := full.owner(k)
		after := reduced.owner(k)
		if before < 3 {
			if after != before {
				t.Fatalf("key %d moved from surviving replica %d to %d", i, before, after)
			}
			continue
		}
		remapped++
		// An orphaned key must land on its first surviving successor.
		want := -1
		for _, idx := range full.order(k) {
			if idx < 3 {
				want = idx
				break
			}
		}
		if after != want {
			t.Fatalf("orphaned key %d landed on %d, want first surviving successor %d", i, after, want)
		}
	}
	if remapped == 0 {
		t.Fatal("no keys were owned by the dropped replica; test proves nothing")
	}
}

// TestRingSingleReplica: a one-replica ring routes everything there.
func TestRingSingleReplica(t *testing.T) {
	r := newRing(urls(1))
	for i := 0; i < 50; i++ {
		if got := r.order(testKey(i)); len(got) != 1 || got[0] != 0 {
			t.Fatalf("order = %v, want [0]", got)
		}
	}
}
