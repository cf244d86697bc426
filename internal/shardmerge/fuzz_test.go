package shardmerge

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"adaudit/internal/streamaudit"
)

// FuzzExportRoundTrip feeds arbitrary bytes to the one place a shard's
// export enters a router: decode, merge with a good shard, serve a
// report. Nothing on that path may panic, whatever the bytes; and a
// container that decodes must re-encode to one that decodes to the same
// export, or a router and a shard could disagree about what was said.
func FuzzExportRoundTrip(f *testing.F) {
	w := newShardWorld(f, 3, 1)
	rng := rand.New(rand.NewSource(3))
	w.populate(f, rng, 60)
	w.buildInputs(f, rng, w.combined(f))
	good := w.exports(f)[0]
	goodBin, err := good.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	// The rest of the seed corpus is under testdata/fuzz: containers that
	// are good, odd (negative counts, keys that are not UTF-8) and bad in
	// each way the container and state decoders check, and one document
	// each of the JSON formats 2 and 1, the second being the one that
	// indexed out of range in a fold.
	f.Add(goodBin)

	f.Fuzz(func(t *testing.T, bin []byte) {
		var exp streamaudit.Export
		if err := exp.UnmarshalBinary(bin); err != nil {
			return // rejected where it was decoded: it goes no further
		}
		again, err := exp.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted export does not re-encode: %v", err)
		}
		var back streamaudit.Export
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded export rejected: %v\n%x", err, again)
		}
		states, _ := exp.States()
		backStates, _ := back.States()
		if back.Seq() != exp.Seq() || !reflect.DeepEqual(backStates, states) {
			t.Fatalf("export changed across its own encoding\n%x", again)
		}
		if third, _ := back.AppendBinary(nil); !bytes.Equal(third, again) {
			t.Fatalf("one export, two encodings\n%x\n%x", again, third)
		}
		eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, Merge([]*streamaudit.Export{good, &exp}))
		if err != nil {
			t.Fatalf("NewStatic rejected a merge of validated exports: %v", err)
		}
		if _, err := eng.Report(w.inputs); err != nil {
			t.Fatalf("Report: %v", err)
		}
		eng.Summaries()
	})
}
