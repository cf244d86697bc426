package main

import (
	"testing"
)

// TestRunShardedReplay drives the full -shards path: collect the
// dataset, boot 3 in-process collector shards behind a router, replay
// a slice of the dataset as real beacon sessions, and let
// replayThroughShards enforce placement and the merged-vs-batch audit
// equality. A failure in any invariant surfaces as run() returning an
// error.
func TestRunShardedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded replay opens real sockets and holds exposures in real time")
	}
	if err := run(7, 6000, "", "", "", "", false, "", "", 120, "mixed", 3, testLogger()); err != nil {
		t.Fatal(err)
	}
}
