package collector

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden files from the live fixture:
//
//	go test ./internal/collector -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("response differs from %s (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestQueryAPIGolden pins the exact success-path JSON of every
// dashboard endpoint against committed fixtures: the deterministic
// store fixture means any byte of drift in shapes, field names,
// ordering or derived metrics fails here first.
func TestQueryAPIGolden(t *testing.T) {
	_, _, base := queryFixture(t)

	for _, tc := range []struct {
		name string
		path string
	}{
		{"campaigns.json", "/api/campaigns"},
		{"summary.json", "/api/summary?campaign=camp-a"},
		{"publishers.json", "/api/publishers?campaign=camp-a&limit=3"},
		{"timeseries.json", "/api/timeseries?campaign=camp-a&bucket=10m"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden(t, tc.name, getBody(t, base+tc.path))
		})
	}
}
