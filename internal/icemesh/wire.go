// Package icemesh distributes fleet execution across worker nodes: a
// coordinator shards a job's cells into contiguous ranges, ships each
// range to a node daemon over a small binary RPC protocol, and merges
// the per-cell results back by global index. Because a cell's result is
// a pure function of (scenario, params, index) — the fleet's determinism
// contract — the merged ensemble is byte-identical to a local run at any
// node count, which is what lets the serving layer treat the cluster as
// one big worker pool.
//
// The RPC frames reuse internal/icewire's primitives (minimal-form
// varints, length-prefixed fields, fixed 8-byte floats, strict bools),
// so the mesh protocol inherits the envelope codec's canonical-form and
// never-panic guarantees; golden vectors and a decode fuzz target hold
// it to the same bar.
package icemesh

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/icewire"
	"repro/internal/sim"
)

// MeshV2 is the protocol version byte every payload starts with; any
// other version is rejected outright, so a peer speaking another
// layout is refused rather than misread.
const MeshV2 = 0x02

// MaxFrame bounds one RPC payload. Frames carry control metadata and at
// most 32 cells' metric maps or 64 spans, so a megabyte is generous;
// anything larger is a corrupt or hostile stream and kills the
// connection.
const MaxFrame = 1 << 20

// Message type codes (payload offset 1).
const (
	codeHello     = 1 // node -> coordinator: register
	codeWelcome   = 2 // coordinator -> node: registration accepted
	codeHeartbeat = 3 // node -> coordinator: liveness + load
	codeAssign    = 4 // coordinator -> node: execute one cell range
	// 5 was a one-cell result frame, superseded by CellBatch; it stays
	// unassigned so a stray one decodes as an unknown type.
	codeShardDone = 6 // node -> coordinator: range finished
	codeDrain     = 7 // either direction: stop assigning, finish in-flight
	codeCellBatch = 8 // node -> coordinator: several cells' results in one frame
	codeSpanBatch = 9 // node -> coordinator: completed trace spans for a traced job
)

// Hello registers a node with the coordinator: its advertised name and
// cell-execution capacity (the width of its local worker pool).
type Hello struct {
	Node     string
	Capacity int
}

// Welcome acknowledges registration. Node echoes the (possibly renamed)
// node name the coordinator registered; HeartbeatMS is the interval the
// node must beat at — miss a few and the coordinator re-assigns.
type Welcome struct {
	Node        string
	HeartbeatMS uint64
}

// Heartbeat is the node's periodic liveness report.
type Heartbeat struct {
	Inflight  int    // shards assigned but not yet ShardDone
	CellsDone uint64 // cumulative cells executed since Hello
}

// Assign ships one contiguous cell range [Start, End) of a registry
// scenario to a node. Cells is the full ensemble size — the node
// rebuilds the identical spec via fleet.Build{Seed, Cells, Duration,
// Knobs} and runs only its range.
type Assign struct {
	Shard    uint64 // coordinator-global shard ID, echoed in results
	Scenario string
	Seed     int64
	Cells    int
	Start    int
	End      int
	Duration sim.Time
	Knobs    map[string]float64

	// Trace asks the node to forward its spans for this job's work back
	// to the coordinator in SpanBatch frames. Like the serving layer's
	// trace flag it never affects results — only whether telemetry rides
	// the wire alongside them.
	Trace bool
}

// CellDone reports one executed cell as a CellBatch entry: its global
// index, the lifted engine counters, and the clinical metric map
// (canonical sorted keys).
type CellDone struct {
	Shard        uint64
	Index        int
	Seed         int64
	Events       uint64
	WireBytes    uint64
	WireEncodeNS uint64
	Err          string
	Metrics      map[string]float64
}

// CellBatch carries cell results, the only frame that does. A node
// sends one shard's cells per frame, up to 32, in index order, once the
// shard ends, so fine-grained shards do not pay a frame (header +
// syscall) per cell; the coordinator accepts any mix of shards and any
// order. An empty batch carries no information and is rejected on both
// ends, so every accepted frame has one canonical encoding.
type CellBatch struct {
	Cells []CellDone
}

// SpanAttr is one key/value annotation on a forwarded span; IsStr
// selects which payload field is meaningful, mirroring icescope.Attr.
type SpanAttr struct {
	Key   string
	Str   string
	Num   float64
	IsStr bool
}

// SpanRec is one completed span as it rides a SpanBatch: offsets are
// nanoseconds on the *sending node's* trace clock (monotonic from its
// trace epoch). The coordinator re-bases them onto the job trace using
// the batch's NowNS, so nodes and coordinator need no clock agreement.
// EndNS >= StartNS is enforced on both ends.
type SpanRec struct {
	Name    string
	StartNS uint64
	EndNS   uint64
	Attrs   []SpanAttr
}

// SpanBatch carries completed node-side spans (one assignment's shard
// span and its cells' spans) to the coordinator for a traced job. A
// node sends them, up to 64 per frame, after the shard's cells and
// before its ShardDone; Shard is the assignment whose trace recorded
// the spans, and NowNS is the node's trace clock at send time, the
// re-basing anchor. An empty batch is rejected on both ends.
type SpanBatch struct {
	Shard uint64
	NowNS uint64
	Spans []SpanRec
}

// ShardDone closes one assignment; Err is the range-level failure (every
// cell-level error already rode its CellBatch entry).
type ShardDone struct {
	Shard uint64
	Err   string
}

// Drain asks the peer to stop starting new work. Coordinator -> node: no
// further Assigns will be accepted; node -> coordinator: assign nothing
// more to me, my in-flight shards will still complete (the node-side
// graceful-shutdown handshake).
type Drain struct {
	Reason string
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

func readZigzag(r *icewire.Reader) (int64, error) {
	u, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// readCount reads a uvarint that must fit a non-negative int and leaves
// headroom against hostile counts (each counted element is at least min
// bytes, so a count the remaining payload cannot hold is rejected before
// any allocation).
func readCount(r *icewire.Reader, min int) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(math.MaxInt32) || (min > 0 && n > uint64(r.Rest()/min)) {
		return 0, fmt.Errorf("icemesh: count %d exceeds remaining payload", n)
	}
	return int(n), nil
}

// appendMap encodes a string->float64 map with strictly ascending keys —
// one canonical encoding per value, exactly as icewire commands encode
// their args.
func appendMap(dst []byte, m map[string]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = icewire.AppendString(dst, k)
		dst = icewire.AppendFloat(dst, m[k])
	}
	return dst
}

func readMap(r *icewire.Reader) (map[string]float64, error) {
	n, err := readCount(r, 9) // key length byte + fixed 8-byte value
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]float64, n)
	prev := ""
	for i := 0; i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("icemesh: map keys out of canonical order (%q after %q)", k, prev)
		}
		prev = k
		v, err := r.Float()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// AppendMessage encodes one RPC payload (version byte, type code,
// fields) into dst. Unknown message types error.
func AppendMessage(dst []byte, m any) ([]byte, error) {
	switch v := m.(type) {
	case *Hello:
		if v.Capacity < 0 {
			return dst, fmt.Errorf("icemesh: negative capacity %d", v.Capacity)
		}
		dst = append(dst, MeshV2, codeHello)
		dst = icewire.AppendString(dst, v.Node)
		return binary.AppendUvarint(dst, uint64(v.Capacity)), nil
	case *Welcome:
		dst = append(dst, MeshV2, codeWelcome)
		dst = icewire.AppendString(dst, v.Node)
		return binary.AppendUvarint(dst, v.HeartbeatMS), nil
	case *Heartbeat:
		if v.Inflight < 0 {
			return dst, fmt.Errorf("icemesh: negative inflight %d", v.Inflight)
		}
		dst = append(dst, MeshV2, codeHeartbeat)
		dst = binary.AppendUvarint(dst, uint64(v.Inflight))
		return binary.AppendUvarint(dst, v.CellsDone), nil
	case *Assign:
		if v.Cells < 0 || v.Start < 0 || v.End < v.Start || v.End > v.Cells {
			return dst, fmt.Errorf("icemesh: bad range [%d,%d) of %d cells", v.Start, v.End, v.Cells)
		}
		dst = append(dst, MeshV2, codeAssign)
		dst = binary.AppendUvarint(dst, v.Shard)
		dst = icewire.AppendString(dst, v.Scenario)
		dst = appendZigzag(dst, v.Seed)
		dst = binary.AppendUvarint(dst, uint64(v.Cells))
		dst = binary.AppendUvarint(dst, uint64(v.Start))
		dst = binary.AppendUvarint(dst, uint64(v.End))
		dst = appendZigzag(dst, int64(v.Duration))
		dst = appendMap(dst, v.Knobs)
		return icewire.AppendBool(dst, v.Trace), nil
	case *CellBatch:
		if len(v.Cells) == 0 {
			return dst, errors.New("icemesh: empty cell batch")
		}
		dst = append(dst, MeshV2, codeCellBatch)
		dst = binary.AppendUvarint(dst, uint64(len(v.Cells)))
		for i := range v.Cells {
			if v.Cells[i].Index < 0 {
				return dst, fmt.Errorf("icemesh: negative cell index %d", v.Cells[i].Index)
			}
			dst = appendCellDone(dst, &v.Cells[i])
		}
		return dst, nil
	case *SpanBatch:
		if len(v.Spans) == 0 {
			return dst, errors.New("icemesh: empty span batch")
		}
		dst = append(dst, MeshV2, codeSpanBatch)
		dst = binary.AppendUvarint(dst, v.Shard)
		dst = binary.AppendUvarint(dst, v.NowNS)
		dst = binary.AppendUvarint(dst, uint64(len(v.Spans)))
		for i := range v.Spans {
			sp := &v.Spans[i]
			if sp.EndNS < sp.StartNS {
				return dst, fmt.Errorf("icemesh: span %q ends before it starts (%d < %d)", sp.Name, sp.EndNS, sp.StartNS)
			}
			dst = icewire.AppendString(dst, sp.Name)
			dst = binary.AppendUvarint(dst, sp.StartNS)
			dst = binary.AppendUvarint(dst, sp.EndNS)
			dst = binary.AppendUvarint(dst, uint64(len(sp.Attrs)))
			for _, a := range sp.Attrs {
				dst = icewire.AppendString(dst, a.Key)
				dst = icewire.AppendBool(dst, a.IsStr)
				if a.IsStr {
					dst = icewire.AppendString(dst, a.Str)
				} else {
					dst = icewire.AppendFloat(dst, a.Num)
				}
			}
		}
		return dst, nil
	case *ShardDone:
		dst = append(dst, MeshV2, codeShardDone)
		dst = binary.AppendUvarint(dst, v.Shard)
		return icewire.AppendString(dst, v.Err), nil
	case *Drain:
		dst = append(dst, MeshV2, codeDrain)
		return icewire.AppendString(dst, v.Reason), nil
	default:
		return dst, fmt.Errorf("icemesh: cannot encode message type %T", m)
	}
}

// appendCellDone encodes one CellBatch entry's fields.
func appendCellDone(dst []byte, v *CellDone) []byte {
	dst = binary.AppendUvarint(dst, v.Shard)
	dst = binary.AppendUvarint(dst, uint64(v.Index))
	dst = appendZigzag(dst, v.Seed)
	dst = binary.AppendUvarint(dst, v.Events)
	dst = binary.AppendUvarint(dst, v.WireBytes)
	dst = binary.AppendUvarint(dst, v.WireEncodeNS)
	dst = icewire.AppendString(dst, v.Err)
	return appendMap(dst, v.Metrics)
}

// DecodeMessage parses one RPC payload, returning a pointer to the typed
// message. It never panics on arbitrary bytes, rejects unknown versions
// and type codes, non-minimal varints, non-canonical map orderings, and
// trailing garbage — every accepted payload has exactly one encoding.
func DecodeMessage(data []byte) (any, error) {
	if len(data) < 2 {
		return nil, errors.New("icemesh: truncated payload")
	}
	if data[0] != MeshV2 {
		return nil, fmt.Errorf("icemesh: unsupported protocol version 0x%02x", data[0])
	}
	r := icewire.NewReader(data[2:])
	var m any
	var err error
	switch data[1] {
	case codeHello:
		v := &Hello{}
		if v.Node, err = r.String(); err == nil {
			var cap64 int
			if cap64, err = readCount(r, 0); err == nil {
				v.Capacity = cap64
			}
		}
		m = v
	case codeWelcome:
		v := &Welcome{}
		if v.Node, err = r.String(); err == nil {
			v.HeartbeatMS, err = r.Uvarint()
		}
		m = v
	case codeHeartbeat:
		v := &Heartbeat{}
		if v.Inflight, err = readCount(r, 0); err == nil {
			v.CellsDone, err = r.Uvarint()
		}
		m = v
	case codeAssign:
		v := &Assign{}
		err = decodeAssign(r, v)
		m = v
	case codeCellBatch:
		v := &CellBatch{}
		// Each entry is at least 8 bytes (six 1-byte varints plus two
		// 1-byte lengths), so hostile counts are rejected pre-allocation.
		var n int
		if n, err = readCount(r, 8); err == nil {
			if n == 0 {
				err = errors.New("icemesh: empty cell batch")
			} else {
				v.Cells = make([]CellDone, n)
				for i := 0; i < n && err == nil; i++ {
					err = decodeCellDone(r, &v.Cells[i])
				}
			}
		}
		m = v
	case codeSpanBatch:
		v := &SpanBatch{}
		err = decodeSpanBatch(r, v)
		m = v
	case codeShardDone:
		v := &ShardDone{}
		if v.Shard, err = r.Uvarint(); err == nil {
			v.Err, err = r.String()
		}
		m = v
	case codeDrain:
		v := &Drain{}
		v.Reason, err = r.String()
		m = v
	default:
		return nil, fmt.Errorf("icemesh: unknown message type code 0x%02x", data[1])
	}
	if err != nil {
		return nil, err
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("icemesh: %d trailing bytes after message", r.Rest())
	}
	return m, nil
}

func decodeAssign(r *icewire.Reader, v *Assign) error {
	var err error
	if v.Shard, err = r.Uvarint(); err != nil {
		return err
	}
	if v.Scenario, err = r.String(); err != nil {
		return err
	}
	if v.Seed, err = readZigzag(r); err != nil {
		return err
	}
	if v.Cells, err = readCount(r, 0); err != nil {
		return err
	}
	if v.Start, err = readCount(r, 0); err != nil {
		return err
	}
	if v.End, err = readCount(r, 0); err != nil {
		return err
	}
	if v.Start > v.End || v.End > v.Cells {
		return fmt.Errorf("icemesh: bad range [%d,%d) of %d cells", v.Start, v.End, v.Cells)
	}
	var d int64
	if d, err = readZigzag(r); err != nil {
		return err
	}
	v.Duration = sim.Time(d)
	if v.Knobs, err = readMap(r); err != nil {
		return err
	}
	v.Trace, err = r.Bool()
	return err
}

func decodeSpanBatch(r *icewire.Reader, v *SpanBatch) error {
	var err error
	if v.Shard, err = r.Uvarint(); err != nil {
		return err
	}
	if v.NowNS, err = r.Uvarint(); err != nil {
		return err
	}
	// Each span is at least 4 bytes (name length, two offsets, attr
	// count, one byte each), so hostile counts die pre-allocation.
	n, err := readCount(r, 4)
	if err != nil {
		return err
	}
	if n == 0 {
		return errors.New("icemesh: empty span batch")
	}
	v.Spans = make([]SpanRec, n)
	for i := range v.Spans {
		sp := &v.Spans[i]
		if sp.Name, err = r.String(); err != nil {
			return err
		}
		if sp.StartNS, err = r.Uvarint(); err != nil {
			return err
		}
		if sp.EndNS, err = r.Uvarint(); err != nil {
			return err
		}
		if sp.EndNS < sp.StartNS {
			return fmt.Errorf("icemesh: span %q ends before it starts (%d < %d)", sp.Name, sp.EndNS, sp.StartNS)
		}
		// Each attr is at least 3 bytes: key length, the IsStr bool, and
		// one payload byte.
		na, err := readCount(r, 3)
		if err != nil {
			return err
		}
		if na == 0 {
			continue
		}
		sp.Attrs = make([]SpanAttr, na)
		for j := range sp.Attrs {
			a := &sp.Attrs[j]
			if a.Key, err = r.String(); err != nil {
				return err
			}
			if a.IsStr, err = r.Bool(); err != nil {
				return err
			}
			if a.IsStr {
				a.Str, err = r.String()
			} else {
				a.Num, err = r.Float()
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeCellDone(r *icewire.Reader, v *CellDone) error {
	var err error
	if v.Shard, err = r.Uvarint(); err != nil {
		return err
	}
	if v.Index, err = readCount(r, 0); err != nil {
		return err
	}
	if v.Seed, err = readZigzag(r); err != nil {
		return err
	}
	if v.Events, err = r.Uvarint(); err != nil {
		return err
	}
	if v.WireBytes, err = r.Uvarint(); err != nil {
		return err
	}
	if v.WireEncodeNS, err = r.Uvarint(); err != nil {
		return err
	}
	if v.Err, err = r.String(); err != nil {
		return err
	}
	v.Metrics, err = readMap(r)
	return err
}

// WriteMessage frames one message onto w: uvarint payload length, then
// the payload. buf is the caller's reusable scratch; the (possibly
// grown) buffer is returned for the next call, so a steady-state
// connection re-frames without allocating.
func WriteMessage(w io.Writer, buf []byte, m any) ([]byte, error) {
	payload, err := AppendMessage(buf[:0], m)
	if err != nil {
		return buf, err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return payload, err
	}
	_, err = w.Write(payload)
	return payload, err
}

// ReadMessage reads one length-prefixed message from r. Payloads larger
// than MaxFrame are rejected before allocation — a corrupt length cannot
// balloon memory.
func ReadMessage(r *bufio.Reader) (any, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("icemesh: %d-byte frame exceeds the %d-byte ceiling", size, MaxFrame)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return DecodeMessage(payload)
}
