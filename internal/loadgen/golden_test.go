package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"

	"gossip/internal/server"
)

// TestBodyGoldens pins the complete response body — accepted line,
// request key, every progress line as served, terminator — of one job
// per /v1 kind, as a sha256. The hashes were recorded at 704ca8f, before
// the three leaders became one; nothing else in tier-1 pins a body or a
// request key, so this is the guard a refactor of the leader, the
// renderers or the key derivation cannot bend. A hash changes only
// together with api.SchemaVersion and bodyVersionSalt.
func TestBodyGoldens(t *testing.T) {
	l, err := StartLocal(server.Config{Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := Options{BaseURL: l.URL, Client: http.DefaultClient}

	for _, tc := range []struct {
		name, path string
		payload    any
		want       string
	}{
		{"simulation", "/v1/simulations", DefaultMix(1)[0], "adabcfb6dbc6d6c5cda8656331fc6eca0b78cf0f40fe8f638592cdfba72b5f7d"},
		{"sweep", "/v1/sweeps", DefaultSweeps(1)[0], "3e288137e86527fe4e956ea95bff63d4c40693766533192b4cb09a57e6742fc1"},
		{"estimate", "/v1/estimates", DefaultEstimates(1)[0], "fe1f716bd733da7070e0a85b27d53bef836dfc8cd916d40bb116eadb2373a894"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Computed and replayed bodies are both pinned: the leader's
			// live stream and the published body must be the same bytes.
			for _, wantCache := range []string{"miss", "hit"} {
				status, cache, body, err := post(context.Background(), o, tc.path, tc.payload)
				if err != nil {
					t.Fatal(err)
				}
				if status != http.StatusOK || cache != wantCache {
					t.Fatalf("status %d cache %q, want 200 %s", status, cache, wantCache)
				}
				sum := sha256.Sum256(body)
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Fatalf("%s body sha256 = %s, want %s\n%s", wantCache, got, tc.want, body)
				}
			}
		})
	}
}
