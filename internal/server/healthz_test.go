package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"veriopt/internal/oracle"
	"veriopt/internal/vstore"
)

// TestCeilSeconds pins the Retry-After arithmetic both serving tiers
// share: whole seconds, rounded up, never a meaningless zero for a
// positive hint.
func TestCeilSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Nanosecond, 1},
		{500 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{2 * time.Second, 2},
		{90 * time.Second, 90},
	}
	for _, c := range cases {
		if got := ceilSeconds(c.d); got != c.want {
			t.Errorf("ceilSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func getHealthz(t *testing.T, base string) healthzResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var hr healthzResponse
	if err := json.Unmarshal(blob, &hr); err != nil {
		t.Fatalf("healthz body is not JSON: %v (%s)", err, blob)
	}
	return hr
}

// TestHealthzBody: the JSON body carries what the coordinator's
// replica probes assert on — version, role, queue sizing, store
// attachment.
func TestHealthzBody(t *testing.T) {
	_, base, cancel, errc := start(t, Config{QueueSize: 32, Oracle: oracle.NewStack(oracle.Config{})})
	hr := getHealthz(t, base)
	drain(t, cancel, errc)
	if !hr.OK || hr.Version != version {
		t.Fatalf("healthz = %+v, want ok with version %q", hr, version)
	}
	if hr.Role != "worker" {
		t.Fatalf("default role = %q, want worker", hr.Role)
	}
	if hr.QueueCapacity != 32 || hr.QueueDepth != 0 {
		t.Fatalf("queue fields = %+v", hr)
	}
	if hr.StoreAttached {
		t.Fatal("store_attached true with no store")
	}
}

// TestHealthzRoleAndStore: a coordinator-labeled server with a durable
// store reports both.
func TestHealthzRoleAndStore(t *testing.T) {
	st, err := vstore.Open(t.TempDir(), vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stack := oracle.NewStack(oracle.Config{Backing: st})
	_, base, cancel, errc := start(t, Config{Oracle: stack, Role: "coordinator"})
	hr := getHealthz(t, base)
	drain(t, cancel, errc)
	if hr.Role != "coordinator" {
		t.Fatalf("role = %q, want coordinator", hr.Role)
	}
	if !hr.StoreAttached {
		t.Fatal("store_attached false with a store attached")
	}
}
