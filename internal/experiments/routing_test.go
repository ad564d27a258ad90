package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestRoutingSmallGolden pins the small-scale stream-routing table byte for
// byte. The run is deterministic (seeded workload, foreground cleaning), so
// any difference means the engines' placement or cleaning decisions changed:
// write amp, E at clean, segments cleaned and streams used all come straight
// from store and vlog Stats. Regenerate the golden file only for an
// intended behavior change:
//
//	go run ./cmd/lsbench -exp routing -scale small > internal/experiments/testdata/routing_small.md
func TestRoutingSmallGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/routing_small.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	StreamRouting(ScaleSmall, nil).Markdown(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("routing table drifted from testdata/routing_small.md\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
