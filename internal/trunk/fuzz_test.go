package trunk

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatch holds the trunk decoder — the one codec both ends of
// every trunk feed bytes from the network — to three properties: it
// never panics; whatever it accepts re-encodes through AppendFrame to
// the same bytes (the decoder refuses every over-long varint, so an
// accepted batch has one encoding); and what it builds is bounded by
// the input's length, not by lengths or counts the input merely claims
// (the general form of TestDecodeBatchRejectsHugeStageCount). The committed corpus under
// testdata/fuzz/FuzzDecodeBatch seeds it; scripts/check.sh -fuzz-smoke
// runs it.
func FuzzDecodeBatch(f *testing.F) {
	var all []byte
	for _, fr := range sampleFrames() {
		all = AppendFrame(all, fr)
		f.Add(AppendFrame(nil, fr))
	}
	f.Add(all)
	f.Add(all[:len(all)-3])
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{4, byte(Reject), 1, 200, 0})
	f.Add(v1OpenFrame())
	f.Add(append([]byte{11, 3, 7, 8}, "ev:click"...)) // a version-1 Event frame

	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := DecodeBatch(b)
		if err != nil {
			if frames != nil {
				t.Fatalf("error %v alongside %d frames", err, len(frames))
			}
			return
		}

		// A frame costs at least 3 input bytes (length, type, stream), a
		// stage at least 2, and every string is a copy of input bytes.
		if 3*len(frames) > len(b) {
			t.Fatalf("%d frames from %d bytes", len(frames), len(b))
		}
		strBytes, stages := 0, 0
		for _, fr := range frames {
			strBytes += len(fr.GatewayID) + len(fr.RemoteIP) + len(fr.Payload) + len(fr.Reason)
			if len(fr.Stages) > maxStages {
				t.Fatalf("%s frame carries %d stages (max %d)", fr.Type, len(fr.Stages), maxStages)
			}
			stages += len(fr.Stages)
			for _, st := range fr.Stages {
				strBytes += len(st.Name)
			}
		}
		if strBytes > len(b) || 2*stages > len(b) {
			t.Fatalf("%d string bytes and %d stages from %d bytes", strBytes, stages, len(b))
		}

		var again []byte
		for _, fr := range frames {
			again = AppendFrame(again, fr)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding changed the batch:\n got %x\nwant %x", again, b)
		}
	})
}
