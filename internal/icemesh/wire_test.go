package icemesh

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden wire vectors and fuzz seed corpus")

// goldenMessages pins one vector per RPC message type, field values
// chosen to exercise varint widths, zigzag negatives, and map ordering.
func goldenMessages() []struct {
	name string
	msg  any
} {
	return []struct {
		name string
		msg  any
	}{
		{"hello", &Hello{Node: "node-a", Capacity: 8}},
		{"welcome", &Welcome{Node: "node-a", HeartbeatMS: 1000}},
		{"heartbeat", &Heartbeat{Inflight: 2, CellsDone: 300}},
		{"assign", &Assign{Shard: 9, Scenario: "pca-supervised", Seed: -42, Cells: 64, Start: 16, End: 32,
			Duration: 2 * sim.Hour, Knobs: map[string]float64{"failsafe": 1, "loss": 0.15}}},
		{"assign-traced", &Assign{Shard: 10, Scenario: "tele-icu-probe", Seed: 7, Cells: 8, Start: 0, End: 4,
			Duration: sim.Hour, Trace: true}},
		{"cellbatch", &CellBatch{Cells: []CellDone{
			{Shard: 9, Index: 17, Seed: 1234567, Events: 250000, WireBytes: 65536,
				WireEncodeNS: 777, Metrics: map[string]float64{"alarms": 3, "min_spo2": 88.5}},
			{Shard: 11, Index: 18, Seed: -7, Err: "cell panicked: causality"},
		}}},
		{"spanbatch", &SpanBatch{Shard: 9, NowNS: 5_000_000, Spans: []SpanRec{
			{Name: "cell run", StartNS: 1_000_000, EndNS: 2_500_000, Attrs: []SpanAttr{
				{Key: "cell", Num: 17}, {Key: "mode", Str: "proto", IsStr: true}}},
			{Name: "dial coordinator", StartNS: 0, EndNS: 0},
		}}},
		{"sharddone", &ShardDone{Shard: 9}},
		{"sharddone-err", &ShardDone{Shard: 10, Err: "unknown scenario"}},
		{"drain", &Drain{Reason: "SIGTERM"}},
	}
}

// TestGoldenMeshVectors pins the mesh RPC format byte for byte, exactly
// as icewire's golden vectors pin the envelope codec. A failure means
// the format changed — bump the protocol version (MeshV2) and write a
// migration, don't regenerate blindly.
func TestGoldenMeshVectors(t *testing.T) {
	for _, g := range goldenMessages() {
		payload, err := AppendMessage(nil, g.msg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		path := filepath.Join("testdata", g.name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(hex.EncodeToString(payload)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (run with -update to regenerate): %v", g.name, err)
		}
		got := hex.EncodeToString(payload)
		if got != strings.TrimSpace(string(want)) {
			t.Errorf("%s: wire format drifted:\ngot  %s\nwant %s", g.name, got, strings.TrimSpace(string(want)))
		}
		// Every golden payload decodes back to its own message.
		decoded, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if !reflect.DeepEqual(decoded, g.msg) {
			t.Errorf("%s: decode mismatch:\ngot  %+v\nwant %+v", g.name, decoded, g.msg)
		}
	}
}

// Unknown versions and type codes are rejected outright.
func TestMeshVersionAndTypeRejection(t *testing.T) {
	payload, err := AppendMessage(nil, &Drain{Reason: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0x00, 0x01, 0x03, 0xFF} {
		bad := append([]byte(nil), payload...)
		bad[0] = v
		if _, err := DecodeMessage(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version 0x%02x: err = %v, want version rejection", v, err)
		}
	}
	for _, c := range []byte{0, 10, 0xFF} {
		bad := append([]byte(nil), payload...)
		bad[1] = c
		if _, err := DecodeMessage(bad); err == nil {
			t.Errorf("type code 0x%02x accepted", c)
		}
	}
	for _, frame := range retiredCellDoneFrames(t) {
		if m, err := DecodeMessage(frame); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("code-5 frame %x: got %+v, %v; want unknown message type", frame, m, err)
		}
	}
	// A version-1 Assign, whose codec name sits where version 2 keeps
	// Knobs, is refused by its version byte instead of misread.
	v1Assign, err := hex.DecodeString("0104090e7063612d737570657276697365645340102080808a978ca3030662696e6172790208" +
		"6661696c73616665000000000000f03f046c6f7373333333333333c33f00")
	if err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeMessage(v1Assign); err == nil || !strings.Contains(err.Error(), "unsupported protocol version 0x01") {
		t.Errorf("v1 assign: got %+v, %v; want unsupported protocol version 0x01", m, err)
	}
}

// retiredCellDoneFrames builds frames of code 5, the retired one-cell
// result message: one CellBatch entry straight after the type byte, in
// both entry shapes (metrics and error). Code 5 stays unassigned, so a
// stray one must decode as an unknown type, never as a cell result.
func retiredCellDoneFrames(tb testing.TB) [][]byte {
	var frames [][]byte
	for _, cd := range []CellDone{
		{Shard: 9, Index: 17, Seed: 1234567, Events: 250000, WireBytes: 65536,
			WireEncodeNS: 777, Metrics: map[string]float64{"alarms": 3, "min_spo2": 88.5}},
		{Shard: 9, Index: 18, Seed: -7, Err: "cell panicked: causality"},
	} {
		batch, err := AppendMessage(nil, &CellBatch{Cells: []CellDone{cd}})
		if err != nil {
			tb.Fatal(err)
		}
		// batch[2] is the one-byte entry count; the entry follows it.
		frames = append(frames, append([]byte{MeshV2, 5}, batch[3:]...))
	}
	return frames
}

// SpanBatch validation: an empty batch and a span whose end precedes
// its start are rejected on the encode side and the decode side alike.
func TestSpanBatchValidation(t *testing.T) {
	if _, err := AppendMessage(nil, &SpanBatch{Shard: 1, NowNS: 2}); err == nil {
		t.Error("empty span batch encoded")
	}
	bad := &SpanBatch{Shard: 1, NowNS: 2, Spans: []SpanRec{{Name: "x", StartNS: 5, EndNS: 2}}}
	if _, err := AppendMessage(nil, bad); err == nil || !strings.Contains(err.Error(), "ends before") {
		t.Errorf("inverted span encode err = %v", err)
	}
	// Hand-built payloads with the same defects die at decode.
	if _, err := DecodeMessage([]byte{MeshV2, codeSpanBatch, 0, 0, 0}); err == nil {
		t.Error("empty span batch decoded")
	}
	if _, err := DecodeMessage([]byte{MeshV2, codeSpanBatch, 0, 0, 1, 1, 'x', 5, 2, 0}); err == nil {
		t.Error("inverted span decoded")
	}
}

// Every truncation of every golden payload is rejected, never accepted
// with a different meaning and never a panic.
func TestMeshEveryTruncationRejected(t *testing.T) {
	for _, g := range goldenMessages() {
		payload, err := AppendMessage(nil, g.msg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := DecodeMessage(payload[:n]); err == nil {
				t.Errorf("%s truncated to %d/%d bytes accepted", g.name, n, len(payload))
			}
		}
		// Trailing garbage is rejected too.
		if _, err := DecodeMessage(append(append([]byte(nil), payload...), 0)); err == nil {
			t.Errorf("%s with trailing byte accepted", g.name)
		}
	}
}

// The stream framing: messages written to a connection come back in
// order, a frame length beyond MaxFrame is rejected before allocation,
// and a truncated stream errors cleanly.
func TestMeshStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	var scratch []byte
	var err error
	for _, g := range goldenMessages() {
		if scratch, err = WriteMessage(&buf, scratch, g.msg); err != nil {
			t.Fatalf("%s: write: %v", g.name, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	for _, g := range goldenMessages() {
		m, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("%s: read: %v", g.name, err)
		}
		if !reflect.DeepEqual(m, g.msg) {
			t.Fatalf("%s: framed round trip mismatch: %+v", g.name, m)
		}
	}
	if _, err := ReadMessage(r); err == nil {
		t.Fatal("read past end of stream succeeded")
	}

	huge := bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}))
	if _, err := ReadMessage(huge); err == nil || !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("oversize frame err = %v, want ceiling rejection", err)
	}

	// A frame whose declared length exceeds the bytes behind it errors.
	short := bufio.NewReader(bytes.NewReader([]byte{0x10, MeshV2, codeDrain}))
	if _, err := ReadMessage(short); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// FuzzDecodeMeshMessage asserts the decoder's safety contract on
// arbitrary bytes: it never panics, and anything it accepts re-encodes
// to the identical payload — accepted messages have exactly one wire
// form, the same bar FuzzDecodeBinary holds icewire to.
func FuzzDecodeMeshMessage(f *testing.F) {
	for _, g := range goldenMessages() {
		payload, err := AppendMessage(nil, g.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{MeshV2})
	f.Add([]byte{MeshV2, codeAssign, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(append([]byte{MeshV2, codeCellBatch}, bytes.Repeat([]byte{0x80}, 11)...))
	f.Add([]byte{MeshV2, codeCellBatch, 0})                            // empty batch: rejected
	f.Add([]byte{MeshV2, codeCellBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // hostile count
	f.Add([]byte{MeshV2, codeSpanBatch, 0, 0, 0})                      // empty span batch: rejected
	f.Add([]byte{MeshV2, codeSpanBatch, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{MeshV2, codeSpanBatch, 0, 0, 1, 1, 'x', 5, 2, 0}) // span ends before it starts
	for _, frame := range retiredCellDoneFrames(f) {
		f.Add(frame) // unknown type: rejected
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return // rejection is always fine; panicking is not
		}
		re, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\nin  %x\nout %x", data, re)
		}
	})
}

// FuzzMeshRoundTrip asserts encode∘decode is the identity for valid
// messages across every type, including negative seeds, non-finite knob
// values, and arbitrary strings.
func FuzzMeshRoundTrip(f *testing.F) {
	f.Add(byte(0), "node-a", uint64(8), int64(0), "k", 0.5, "")
	f.Add(byte(3), "pca-supervised", uint64(64), int64(-42), "loss", 0.15, "binary")
	f.Add(byte(4), "m", uint64(17), int64(7), "alarms", math.Inf(1), "boom")
	f.Add(byte(7), "batch", uint64(64), int64(-3), "min_spo2", 88.5, "err")

	f.Fuzz(func(t *testing.T, kind byte, s1 string, u1 uint64, i1 int64, key string, v1 float64, s2 string) {
		n := int(u1 % (1 << 20))
		var kv map[string]float64
		if key != "" {
			kv = map[string]float64{key: v1}
		}
		var msg any
		switch kind % 9 {
		case 0:
			msg = &Hello{Node: s1, Capacity: n}
		case 1:
			msg = &Welcome{Node: s1, HeartbeatMS: u1}
		case 2:
			msg = &Heartbeat{Inflight: n, CellsDone: u1}
		case 3:
			msg = &Assign{Shard: u1, Scenario: s1, Seed: i1, Cells: n, Start: n / 4, End: n / 2,
				Duration: sim.Time(i1), Knobs: kv}
		case 4:
			msg = &CellBatch{Cells: []CellDone{{Shard: u1, Index: n, Seed: i1, Events: u1,
				WireBytes: u1 / 2, WireEncodeNS: u1 / 3, Err: s2, Metrics: kv}}}
		case 5:
			msg = &ShardDone{Shard: u1, Err: s2}
		case 6:
			msg = &Drain{Reason: s1}
		case 7:
			msg = &CellBatch{Cells: []CellDone{
				{Shard: u1, Index: n, Seed: i1, Events: u1, Err: s2, Metrics: kv},
				{Shard: u1 + 1, Index: n / 2, Seed: -i1, WireBytes: u1 / 2, WireEncodeNS: u1 / 3},
			}}
		case 8:
			var attrs []SpanAttr
			if key != "" {
				attrs = []SpanAttr{{Key: key, Num: v1}, {Key: key + "s", Str: s2, IsStr: true}}
			}
			msg = &SpanBatch{Shard: u1, NowNS: u1 + uint64(n), Spans: []SpanRec{
				{Name: s1, StartNS: u1 / 2, EndNS: u1/2 + uint64(n), Attrs: attrs},
				{Name: s2, StartNS: u1, EndNS: u1},
			}}
		}
		payload, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("valid message failed to encode: %v", err)
		}
		got, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("own payload failed to decode: %v", err)
		}
		// Encoding is canonical, so byte-equal re-encodings are the
		// identity proof — and unlike DeepEqual, bit-exact for NaN.
		re, err := AppendMessage(nil, got)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("round trip mismatch (%+v):\nin  %x\nout %x", got, payload, re)
		}
	})
}

// TestMeshFuzzSeedCorpus regenerates the checked-in corpus with -update.
func TestMeshFuzzSeedCorpus(t *testing.T) {
	if !*update {
		t.Skip("corpus is checked in; run with -update to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMeshMessage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string][]byte)
	for _, g := range goldenMessages() {
		payload, err := AppendMessage(nil, g.msg)
		if err != nil {
			t.Fatal(err)
		}
		seeds["golden-"+g.name] = payload
	}
	seeds["empty"] = nil
	seeds["version-only"] = []byte{MeshV2}
	seeds["bad-version"] = []byte{0x01, codeHello, 0}
	seeds["huge-count"] = []byte{MeshV2, codeAssign, 1, 1, 'x', 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	seeds["overlong-varint"] = append([]byte{MeshV2, codeCellBatch}, bytes.Repeat([]byte{0x80}, 11)...)
	seeds["empty-batch"] = []byte{MeshV2, codeCellBatch, 0}
	seeds["huge-batch-count"] = []byte{MeshV2, codeCellBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	seeds["empty-span-batch"] = []byte{MeshV2, codeSpanBatch, 0, 0, 0}
	seeds["huge-span-count"] = []byte{MeshV2, codeSpanBatch, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	seeds["span-ends-before-start"] = []byte{MeshV2, codeSpanBatch, 0, 0, 1, 1, 'x', 5, 2, 0}
	for name, data := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
