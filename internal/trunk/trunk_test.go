package trunk

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/bytecodec"
)

func sampleFrames() []Frame {
	return []Frame{
		{Type: Hello, Version: Version, GatewayID: "gw-test-1"},
		{
			Type: Commit, Stream: 7, RemoteIP: "203.0.113.9",
			ConnectedAt: 1459242000123456789,
			Exposure:    2500 * time.Millisecond,
			Payload: string(beacon.Payload{
				CampaignID: "c1", CreativeID: "cr1", PageURL: "http://news.example/a",
				UserAgent: "sim", Nonce: "abc", Events: []beacon.Event{{Kind: beacon.EventClick}},
			}.EncodeBinary()),
			Stages: []Stage{
				{Name: "gateway_recv", Offset: 3 * time.Millisecond},
				{Name: "trunk_forward", Offset: 9 * time.Millisecond},
			},
		},
		{Type: Ack, Stream: 7},
		{Type: Reject, Stream: 9, Reason: "payload: bad campaign"},
		// Negative ConnectedAt and zero-value strings must survive too.
		{Type: Commit, Stream: 0, ConnectedAt: -5, Exposure: 0, Payload: ""},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	want := sampleFrames()
	var batch []byte
	for _, f := range want {
		batch = AppendFrame(batch, f)
	}
	got, err := DecodeBatch(batch)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d (%s): got %+v want %+v", i, want[i].Type, got[i], want[i])
		}
	}
}

func TestSingleFrameBatches(t *testing.T) {
	for _, f := range sampleFrames() {
		got, err := DecodeBatch(AppendFrame(nil, f))
		if err != nil {
			t.Fatalf("%s: %v", f.Type, err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], f) {
			t.Errorf("%s: got %+v want %+v", f.Type, got, f)
		}
	}
}

func TestDecodeBatchEmpty(t *testing.T) {
	frames, err := DecodeBatch(nil)
	if err != nil || len(frames) != 0 {
		t.Fatalf("empty batch: frames=%v err=%v", frames, err)
	}
}

// v1OpenFrame is a version-1 Open frame (type 2: stream, peer, connect
// time, payload) as an old edge would send it, length-prefixed.
func v1OpenFrame() []byte {
	body := []byte{2, 7}
	body = bytecodec.AppendString(body, "203.0.113.9")
	body = binary.AppendVarint(body, 1459242000123456789)
	body = bytecodec.AppendString(body, "v=1&cid=c1&crid=cr1&url=http%3A%2F%2Fnews.example%2Fa&ua=sim&n=abc")
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	valid := AppendFrame(nil, sampleFrames()[1]) // a Commit with stages
	cases := map[string][]byte{
		"zero-length frame":      {0},
		"truncated batch length": {0x80}, // uvarint continuation with no next byte
		"length beyond buffer":   {10, 1, 2},
		"unknown type":           AppendFrame(nil, Frame{Type: Type(99)}),
		"truncated frame body":   valid[:len(valid)-3],
		"trailing bytes in body": append(append([]byte{}, 3, byte(Ack), 0), 0xFF),
		"string length overrun":  {4, byte(Reject), 1, 200, 0},
		"overlong string length": {4, byte(Reject), 1, 0x80, 0x00}, // every length has one encoding
		"version-1 open frame":   v1OpenFrame(),
	}
	for name, b := range cases {
		if _, err := DecodeBatch(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecodeBatchRejectsHugeStageCount(t *testing.T) {
	// Hand-build a Commit body claiming maxStages+1 stages.
	body := []byte{byte(Commit), 1}
	body = bytecodec.AppendString(body, "ip")
	body = append(body, 0, 0)                // ConnectedAt=0, Exposure=0 (varint zeros)
	body = bytecodec.AppendString(body, "p") // payload
	body = append(body, maxStages+1)         // stage count
	batch := append([]byte{byte(len(body))}, body...)
	if _, err := DecodeBatch(batch); err == nil {
		t.Fatal("oversized stage count decoded without error")
	}
}

func TestTruncatedPrefixesAllFail(t *testing.T) {
	// Every strict prefix of a valid single-frame batch must error, not
	// silently decode a partial frame.
	full := AppendFrame(nil, sampleFrames()[1])
	for i := 1; i < len(full); i++ {
		if frames, err := DecodeBatch(full[:i]); err == nil && len(frames) > 0 {
			t.Fatalf("prefix of %d/%d bytes decoded %d frames", i, len(full), len(frames))
		}
	}
}

// TestBodySizeMatchesEncoding pins bodySize to appendBody: AppendFrame
// writes the length prefix before the body, so a drift between the two
// would corrupt every batch. Includes varint edge values (negative,
// zero, multi-byte) beyond what sampleFrames covers.
func TestBodySizeMatchesEncoding(t *testing.T) {
	frames := sampleFrames()
	frames = append(frames,
		Frame{Type: Hello, Stream: 1<<63 - 1, Version: 300, GatewayID: string(make([]byte, 200))},
		Frame{Type: Commit, Stream: 128, ConnectedAt: -1 << 62, Exposure: -time.Hour,
			Payload: string(make([]byte, 1<<14)),
			Stages:  []Stage{{Name: "", Offset: -1}, {Name: "x", Offset: 1 << 40}}},
		Frame{Type: Reject, Reason: ""},
	)
	for _, f := range frames {
		if got, want := bodySize(f), len(appendBody(nil, f)); got != want {
			t.Errorf("%s: bodySize=%d, encoded body=%d bytes", f.Type, got, want)
		}
	}
}
