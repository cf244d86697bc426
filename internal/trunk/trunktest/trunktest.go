// Package trunktest holds the first messages trunk.Receiver refuses, for
// the receiver's own test and the tiers' tests of what a refusal does.
package trunktest

import (
	"fmt"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

var commit = trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
	Exposure: time.Second, Payload: string(beacon.Payload{
		CampaignID: "c", CreativeID: "cr", PageURL: "http://pub.example/", Nonce: "n"}.EncodeBinary())})

func hello(v int) []byte {
	return trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: v, GatewayID: "gw"})
}

// Refusals are the first messages a receiver refuses, with the reason
// its 1008 close gives.
var Refusals = []struct {
	Name, Reason string
	Op           wsproto.Opcode
	Msg          []byte
}{
	{"hello of another version", fmt.Sprintf("trunk protocol version %d, this build speaks %d", trunk.Version-1, trunk.Version),
		wsproto.OpBinary, hello(trunk.Version - 1)},
	{"text message", "trunk frames must be binary", wsproto.OpText, []byte("hello")},
	{"malformed batch", "malformed trunk batch", wsproto.OpBinary, []byte{0xff}},
	{"commit before hello", "trunk batch before hello", wsproto.OpBinary, commit},
	{"commit then hello", "trunk batch before hello", wsproto.OpBinary, append(commit[:len(commit):len(commit)], hello(trunk.Version)...)},
}
