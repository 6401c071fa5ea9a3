package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// testKey derives a deterministic pseudo-random fingerprint from a
// counter (the order only reads the first 8 bytes).
func testKey(i int) [sha256.Size]byte {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	return sha256.Sum256(seed[:])
}

// owner returns the key's primary replica index.
func (c *Coordinator) owner(key [sha256.Size]byte) int { return c.order(key)[0] }

func urls(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "http://worker-" + string(rune('a'+i)) + ":8080"
	}
	return out
}

// isPermutation reports whether order lists each of 0..n-1 once.
func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if idx < 0 || idx >= n || seen[idx] {
			return false
		}
		seen[idx] = true
	}
	return true
}

// TestRingOrderComplete: Order is a permutation of all replica
// indices, identical across independently built coordinators over the
// same fleet.
func TestRingOrderComplete(t *testing.T) {
	r1 := mustNew(t, Config{Replicas: urls(4)})
	r2 := mustNew(t, Config{Replicas: urls(4)})
	for i := 0; i < 200; i++ {
		k := testKey(i)
		o1, o2 := r1.order(k), r2.order(k)
		if len(o1) != 4 {
			t.Fatalf("order length = %d, want 4", len(o1))
		}
		if !isPermutation(o1, 4) {
			t.Fatalf("order %v is not a permutation", o1)
		}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("orders disagree for key %d: %v vs %v", i, o1, o2)
			}
		}
	}
}

// TestOrderIgnoresListingOrder: a coordinator over the fleet listed
// reversed, or rotated, orders every key's replicas by the same URLs
// as one over the original list.
func TestOrderIgnoresListingOrder(t *testing.T) {
	fleet := urls(5)
	reversed := slices.Clone(fleet)
	slices.Reverse(reversed)
	rotated := append(slices.Clone(fleet[2:]), fleet[:2]...)
	base := mustNew(t, Config{Replicas: fleet})
	for _, list := range [][]string{reversed, rotated} {
		c := mustNew(t, Config{Replicas: list})
		for i := 0; i < 2000; i++ {
			k := testKey(i)
			want, got := base.order(k), c.order(k)
			for j := range want {
				if fleet[want[j]] != list[got[j]] {
					t.Fatalf("listing %v, key %d: position %d is %s, want %s", list, i, j, list[got[j]], fleet[want[j]])
				}
			}
		}
	}
}

// TestRingBalance: no replica owns a wildly disproportionate share of
// keys.
func TestRingBalance(t *testing.T) {
	const replicas, keys = 3, 3000
	r := mustNew(t, Config{Replicas: urls(replicas)})
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

// TestOrderShardsAreEven: over 40 fleets each of 2, 4 and 8 replicas
// on loopback ports (the shape the cluster benchmark and smoke test
// run: workers on ports the kernel picks), no replica owns more than
// 1.10x its fair share of 20 000 keys. A shard is the memory a replica
// spends on the verdicts it caches, so the largest one sizes the fleet.
func TestOrderShardsAreEven(t *testing.T) {
	const fleets, keys, bound = 40, 20000, 1.10
	rng := rand.New(rand.NewPCG(65, 0))
	for _, n := range []int{2, 4, 8} {
		worst := 0.0
		for f := 0; f < fleets; f++ {
			list := make([]string, n)
			for i := range list {
				for list[i] == "" || slices.Contains(list[:i], list[i]) {
					list[i] = "http://127.0.0.1:" + strconv.Itoa(32768+rng.IntN(28232))
				}
			}
			c := mustNew(t, Config{Replicas: list})
			counts := make([]int, n)
			for i := 0; i < keys; i++ {
				counts[c.owner(testKey(i))]++
			}
			share := float64(slices.Max(counts)) * float64(n) / keys
			if share > bound {
				t.Errorf("fleet %v: largest shard is %.3fx the fair share (counts %v), want <= %.2fx", list, share, counts, bound)
			}
			worst = max(worst, share)
		}
		t.Logf("n=%d: largest shard %.3fx the fair share", n, worst)
	}
}

// TestRingConsistency: dropping one replica remaps only the keys it
// owned; every other key keeps its owner. This is the property that
// makes replica-local verdict caches survive fleet resizes.
func TestRingConsistency(t *testing.T) {
	full := mustNew(t, Config{Replicas: urls(4)})
	reduced := mustNew(t, Config{Replicas: urls(4)[:3]})
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

// TestRingSingleReplica: a one-replica fleet routes everything there.
func TestRingSingleReplica(t *testing.T) {
	r := mustNew(t, Config{Replicas: urls(1)})
	for i := 0; i < 50; i++ {
		if got := r.order(testKey(i)); len(got) != 1 || got[0] != 0 {
			t.Fatalf("order = %v, want [0]", got)
		}
	}
}

// TestOrderIsAPermutationWhileHealthFlips: while another goroutine
// demotes and promotes replicas, every order still lists each replica
// exactly once, so a query tries no replica twice and skips none.
func TestOrderIsAPermutationWhileHealthFlips(t *testing.T) {
	const n, orders = 8, 100000
	c := mustNew(t, Config{Replicas: urls(n)})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(8, 0))
		for !stop.Load() {
			rep := c.reps[rng.IntN(n)]
			rep.healthy.Store(!rep.healthy.Load())
		}
	}()
	bad := 0
	for i := 0; i < orders; i++ {
		if o := c.order(testKey(i)); !isPermutation(o, n) {
			if bad == 0 {
				t.Errorf("key %d: order %v is not a permutation of %d replicas", i, o, n)
			}
			bad++
		}
	}
	stop.Store(true)
	wg.Wait()
	if bad > 0 {
		t.Errorf("%d of %d orders were not permutations", bad, orders)
	}
}

// TestOrderAllocs: a query's order costs one allocation, the order
// itself, whether or not a replica is demoted.
func TestOrderAllocs(t *testing.T) {
	c := mustNew(t, Config{Replicas: urls(4)})
	k := testKey(1)
	for _, demoted := range []bool{false, true} {
		c.reps[2].healthy.Store(!demoted)
		if got := testing.AllocsPerRun(100, func() { c.order(k) }); got > 1 {
			t.Errorf("demoted replica %v: order costs %.0f allocations, want 1", demoted, got)
		}
	}
}
