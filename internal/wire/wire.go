// Package wire defines the on-the-wire packet formats shared by the NDN and
// COPSS/G-COPSS engines.
//
// The paper extends the two NDN packet types (Interest, Data) with three
// COPSS types (Subscribe, Unsubscribe, Multicast) plus FIB add/remove control
// packets, and the RP-migration control messages (Join, Confirm, Leave,
// Handoff) used by the hot-spot balancing protocol. All packets share one
// self-describing TLV encoding so that a face can carry a mixed stream and a
// router can demultiplex with a single byte ("is a NDN pkt?" in Fig 2).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// Type identifies the packet type on the wire.
type Type uint8

// Packet types. Enum starts at 1 so the zero value is invalid.
const (
	// TypeInterest is an NDN Interest (query for named content).
	TypeInterest Type = iota + 1
	// TypeData is an NDN Data packet satisfying an Interest.
	TypeData
	// TypeSubscribe adds CDs to the sender's subscriptions.
	TypeSubscribe
	// TypeUnsubscribe removes CDs from the sender's subscriptions.
	TypeUnsubscribe
	// TypeMulticast pushes a publication for a CD to all subscribers.
	TypeMulticast
	// TypeFIBAdd installs FIB entries (possibly several prefixes at once).
	TypeFIBAdd
	// TypeFIBRemove removes FIB entries.
	TypeFIBRemove
	// TypeJoin grafts a branch onto a multicast tree during RP migration.
	TypeJoin
	// TypeConfirm acknowledges a Join from an on-tree router.
	TypeConfirm
	// TypeLeave prunes the old branch after a successful Join.
	TypeLeave
	// TypeHandoff transfers responsibility for a CD list from one RP to a
	// newly created RP.
	TypeHandoff
	// TypePrune dissolves the old-tree branch toward a migrated RP's new
	// host. It is emitted by the old host at cut-over time and travels the
	// handoff path FIFO-behind the last old-tree data, so it can never
	// outrun a delivery.
	TypePrune
	// TypeAck is a hop-by-hop acknowledgement for a reliable control packet.
	// It echoes the CtlSeq of the acknowledged packet; it is never forwarded.
	TypeAck
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeInterest:
		return "Interest"
	case TypeData:
		return "Data"
	case TypeSubscribe:
		return "Subscribe"
	case TypeUnsubscribe:
		return "Unsubscribe"
	case TypeMulticast:
		return "Multicast"
	case TypeFIBAdd:
		return "FIBAdd"
	case TypeFIBRemove:
		return "FIBRemove"
	case TypeJoin:
		return "Join"
	case TypeConfirm:
		return "Confirm"
	case TypeLeave:
		return "Leave"
	case TypeHandoff:
		return "Handoff"
	case TypePrune:
		return "Prune"
	case TypeAck:
		return "Ack"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsNDN reports whether the packet type belongs to the base NDN engine
// (the "is a NDN pkt?" branch in the router architecture of Fig 2).
func (t Type) IsNDN() bool { return t == TypeInterest || t == TypeData }

// Packet is the parsed form of any G-COPSS packet. Fields that do not apply
// to a given type are left at their zero values and are omitted from the
// encoding.
type Packet struct {
	Type Type

	// Name is the NDN ContentName for Interest/Data packets and the RP name
	// for Handoff/Join/Confirm/Leave control packets.
	Name string

	// CDs carries the content descriptors of Subscribe/Unsubscribe packets,
	// the (single) CD of a Multicast packet, the prefixes of FIBAdd/FIBRemove
	// packets, and the transferred CD list of a Handoff.
	CDs []cd.CD

	// Payload is the application data of Multicast and Data packets, and the
	// encapsulated inner packet when a Multicast travels inside an Interest.
	Payload []byte

	// Origin identifies the publishing player or node, carried for tracing
	// and dissemination accounting; forwarding never inspects it.
	Origin string

	// Seq is a publisher-assigned sequence number used by the evaluation to
	// correlate deliveries with publications.
	Seq uint64

	// SentAt is the (virtual or wall-clock) send timestamp in nanoseconds,
	// used to measure update latency.
	SentAt int64

	// CDHashes once carried the Bloom-filter hash pairs of the Multicast
	// CD's prefixes, stamped at the first hop (the paper's Section III-C
	// optimization). Encode ignores it and Decode never sets it.
	//
	// Deprecated: no Subscription Table reads the vector, so it is off the
	// wire; field 8 is reserved. Only the benchmark's layer probes still
	// write it.
	CDHashes []uint64

	// CtlSeq is the hop-by-hop ARQ sequence number for reliable control
	// packets (Join/Confirm/Leave/Handoff/Prune/FIBAdd between routers).
	// The sender stamps a per-link monotonic value; the receiver echoes it
	// in a TypeAck and uses it to deduplicate retransmissions. Zero means
	// the packet travels unacknowledged (legacy / client faces).
	CtlSeq uint64

	// AdvWin is a receiver-advertised flow-control window (internal/flowctl):
	// how many snapshot objects the sender of this packet is prepared to
	// absorb per delivery round. Carried on the session-start control
	// multicast of a cyclic snapshot fetch; the broker caps each session
	// rotation at the smallest advertisement among its subscribers, so slow
	// receivers shed load explicitly instead of via drops. Zero — the common
	// case — means no advertisement and is omitted from the encoding.
	AdvWin uint32

	// TraceID is the causal-tracing context (internal/obs/trace): a sampled
	// first-hop router stamps a nonzero deterministic ID derived from
	// (origin, seq, seed), and every router on the path appends hop records
	// keyed by it. Zero — the overwhelmingly common case — means the packet
	// is untraced and the field is omitted from the encoding, so disabled
	// tracing leaves wire bytes unchanged. A router re-emits the packet it
	// received, so the ID rides along unchanged; a hop that changes another
	// field copies the struct first and the ID comes with it.
	TraceID uint64
}

// CD returns the single content descriptor of a Multicast packet, or ErrNoCD
// when the packet carries none. A malformed packet must surface as an error,
// never crash a router, so there is deliberately no panicking accessor.
func (p *Packet) CD() (cd.CD, error) {
	if len(p.CDs) == 0 {
		return cd.Root(), ErrNoCD
	}
	return p.CDs[0], nil
}

// Validation errors. Sentinels rather than formatted errors: Validate runs
// on the zero-allocation encode path, so it must not build error strings.
// Callers that need the offending detail have the packet in hand.
var (
	ErrNoName       = errors.New("wire: packet type requires a name")
	ErrNoCDs        = errors.New("wire: packet type requires CDs")
	ErrPruneNoName  = errors.New("wire: Prune without an RP name")
	ErrFIBEmpty     = errors.New("wire: FIB update without a name or CDs")
	ErrMulticastCDs = errors.New("wire: Multicast must carry exactly one CD")
	ErrAckNoSeq     = errors.New("wire: Ack without a CtlSeq")
	ErrUnknownType  = errors.New("wire: unknown packet type")
)

// Validate checks type-specific structural invariants. It is part of the
// hot encode path and allocates nothing, error cases included (TestValidate).
func (p *Packet) Validate() error {
	switch p.Type {
	case TypeInterest, TypeData:
		if p.Name == "" {
			return ErrNoName
		}
	case TypeSubscribe, TypeUnsubscribe, TypeHandoff, TypePrune:
		if len(p.CDs) == 0 {
			return ErrNoCDs
		}
		if p.Type == TypePrune && p.Name == "" {
			return ErrPruneNoName
		}
	case TypeFIBAdd, TypeFIBRemove:
		// RP announcements carry served CDs; pure prefix announcements
		// (e.g. a broker making /snapshot routable) carry only a name.
		if p.Name == "" && len(p.CDs) == 0 {
			return ErrFIBEmpty
		}
	case TypeMulticast:
		if len(p.CDs) != 1 {
			return ErrMulticastCDs
		}
	case TypeJoin, TypeConfirm, TypeLeave:
		if p.Name == "" {
			return ErrNoName
		}
	case TypeAck:
		if p.CtlSeq == 0 {
			return ErrAckNoSeq
		}
	default:
		return ErrUnknownType
	}
	return nil
}

// field tags of the TLV body.
const (
	fieldName    = 1
	fieldCD      = 2 // repeated
	fieldPayload = 3
	fieldOrigin  = 4
	fieldSeq     = 5
	fieldSentAt  = 6
	// 7 once carried a per-hop counter and 8 the first-hop Bloom hash
	// vector; both stay reserved, and Decode skips them in old frames like
	// any unknown field.
	fieldCtlSeq  = 9
	fieldTraceID = 10
	fieldAdvWin  = 11
)

const (
	magic0  = 0xC0
	magic1  = 0x55
	version = 1
)

// Errors returned by Decode.
var (
	ErrShortPacket = errors.New("wire: truncated packet")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
)

// ErrNoCD reports a packet that carries no content descriptor where one is
// required.
var ErrNoCD = errors.New("wire: packet has no CD")

// uvarintLen returns the number of bytes binary.PutUvarint would use for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// fieldLen returns the encoded size of one (tag, len, value) field whose
// value occupies valLen bytes. All field tags fit one uvarint byte.
func fieldLen(valLen int) int {
	return 1 + uvarintLen(uint64(valLen)) + valLen
}

// bodyLen computes the TLV body length arithmetically, mirroring the field
// omission rules of AppendEncode exactly.
func bodyLen(p *Packet) int {
	n := 0
	if p.Name != "" {
		n += fieldLen(len(p.Name))
	}
	for _, c := range p.CDs {
		n += fieldLen(len(c.Key()))
	}
	if len(p.Payload) > 0 {
		n += fieldLen(len(p.Payload))
	}
	if p.Origin != "" {
		n += fieldLen(len(p.Origin))
	}
	if p.Seq != 0 {
		n += fieldLen(uvarintLen(p.Seq))
	}
	if p.SentAt != 0 {
		n += fieldLen(8)
	}
	if p.CtlSeq != 0 {
		n += fieldLen(uvarintLen(p.CtlSeq))
	}
	if p.TraceID != 0 {
		n += fieldLen(uvarintLen(p.TraceID))
	}
	if p.AdvWin != 0 {
		n += fieldLen(uvarintLen(uint64(p.AdvWin)))
	}
	return n
}

// AppendEncode serializes the packet onto dst and returns the extended slice,
// allocating only if dst lacks capacity. The layout is:
//
//	magic(2) version(1) type(1) bodyLen(uvarint) body
//
// where body is a sequence of (tag uvarint, len uvarint, value) fields. This
// is the zero-allocation entry point for callers that reuse buffers (the TCP
// transport assembles frames in its per-connection write buffer through
// AppendEncodeBurst); Encode wraps it for one-shot use. Into a buffer with
// room it allocates nothing (TestAppendEncodeReuseAllocFree).
func AppendEncode(dst []byte, p *Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	body := bodyLen(p)
	if need := 4 + uvarintLen(uint64(body)) + body; cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	out := append(dst, magic0, magic1, version, byte(p.Type))
	out = binary.AppendUvarint(out, uint64(body))
	if p.Name != "" {
		out = appendStringField(out, fieldName, p.Name)
	}
	for _, c := range p.CDs {
		out = appendStringField(out, fieldCD, c.Key())
	}
	if len(p.Payload) > 0 {
		out = appendBytesField(out, fieldPayload, p.Payload)
	}
	if p.Origin != "" {
		out = appendStringField(out, fieldOrigin, p.Origin)
	}
	if p.Seq != 0 {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], p.Seq)
		out = appendBytesField(out, fieldSeq, buf[:n])
	}
	if p.SentAt != 0 {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(p.SentAt))
		out = appendBytesField(out, fieldSentAt, buf[:])
	}
	if p.CtlSeq != 0 {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], p.CtlSeq)
		out = appendBytesField(out, fieldCtlSeq, buf[:n])
	}
	if p.TraceID != 0 {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], p.TraceID)
		out = appendBytesField(out, fieldTraceID, buf[:n])
	}
	if p.AdvWin != 0 {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], uint64(p.AdvWin))
		out = appendBytesField(out, fieldAdvWin, buf[:n])
	}
	return out, nil
}

// AppendEncodeBurst serializes every packet in pkts onto dst back-to-back and
// returns the extended slice — the writev-style burst packer. The total size
// is computed arithmetically first so the buffer grows at most once for the
// whole burst, and every packet is validated before any byte is written:
// on error dst is returned unchanged, never half a burst. Decode already
// consumes back-to-back streams, so the concatenation needs no extra framing.
// Into a buffer with room it allocates nothing
// (TestAppendEncodeBurstReuseAllocFree).
func AppendEncodeBurst(dst []byte, pkts []*Packet) ([]byte, error) {
	need := 0
	for _, p := range pkts {
		if err := p.Validate(); err != nil {
			return dst, err
		}
		body := bodyLen(p)
		need += 4 + uvarintLen(uint64(body)) + body
	}
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	for _, p := range pkts {
		// Validate already passed, so AppendEncode cannot fail here.
		dst, _ = AppendEncode(dst, p) //lint:allow errcheckedfaces Validate passed for every packet in the first pass
	}
	return dst, nil
}

func appendBytesField(out []byte, tag uint64, val []byte) []byte {
	out = binary.AppendUvarint(out, tag)
	out = binary.AppendUvarint(out, uint64(len(val)))
	return append(out, val...)
}

func appendStringField(out []byte, tag uint64, val string) []byte {
	out = binary.AppendUvarint(out, tag)
	out = binary.AppendUvarint(out, uint64(len(val)))
	return append(out, val...)
}

// Encode serializes the packet into a fresh buffer sized exactly by Size.
func Encode(p *Packet) ([]byte, error) {
	return AppendEncode(nil, p)
}

// Decoder decodes packets for one reader and remembers the short strings it
// has seen: a face carries a handful of origins and CD keys for its whole
// session, so after the first packet they come out of a table instead of
// being allocated again (Name is not looked up: encapsulation names are
// unique per publication by design). The zero value is ready, a nil *Decoder
// decodes without a table, and a Decoder is not for concurrent use — a
// connection's single reader owns one, a router owns one for Decapsulate.
//
// The table is bounded: it holds at most internMaxEntries strings of at most
// internMaxLen bytes and starts over when full, so a hostile peer can make it
// churn but never grow.
type Decoder struct {
	strs map[string]string
}

const (
	internMaxEntries = 1024
	internMaxLen     = 128
)

// intern returns val as a string, from the table when it has been seen.
func (d *Decoder) intern(val []byte) string {
	if d == nil || len(val) > internMaxLen {
		return string(val)
	}
	if s, ok := d.strs[string(val)]; ok { // the conversion in a map index does not allocate
		return s
	}
	if d.strs == nil || len(d.strs) >= internMaxEntries {
		d.strs = make(map[string]string)
	}
	s := string(val)
	d.strs[s] = s
	return s
}

// decoded is the one allocation Decode makes for a packet: the Packet and
// the CD slot of the single-CD types. Multi-CD control packets fall back to
// append.
type decoded struct {
	pkt Packet
	cd  [1]cd.CD
}

// Decode parses one packet from buf without a string table; see
// Decoder.Decode for the contract.
func Decode(buf []byte) (*Packet, int, error) { return (*Decoder)(nil).Decode(buf) }

// Decode parses one packet from buf and returns it together with the number
// of bytes consumed, allowing streams of back-to-back packets.
//
// Decode's result borrows buf; the caller gives buf up. Payload is a
// sub-slice of buf (capacity-clipped, so an append can never reach a
// neighbouring packet), not a copy: buf must not be written or reused while
// any packet decoded from it is reachable, and the garbage collector frees it
// when the last one goes (DESIGN.md §11 rule 4). Strings are copied out or
// taken from the table, never aliased, so a retained CD key or origin does
// not keep buf alive.
func (d *Decoder) Decode(buf []byte) (*Packet, int, error) {
	if len(buf) < 5 {
		return nil, 0, ErrShortPacket
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return nil, 0, ErrBadMagic
	}
	if buf[2] != version {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	rest := buf[4:]
	bodyLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, 0, ErrShortPacket
	}
	rest = rest[n:]
	if uint64(len(rest)) < bodyLen {
		return nil, 0, ErrShortPacket
	}
	consumed := 4 + n + int(bodyLen)
	body := rest[:bodyLen]
	rec := &decoded{}
	p := &rec.pkt
	p.Type = Type(buf[3])
	for len(body) > 0 {
		tag, tn := binary.Uvarint(body)
		if tn <= 0 {
			return nil, 0, ErrShortPacket
		}
		body = body[tn:]
		flen, ln := binary.Uvarint(body)
		if ln <= 0 || uint64(len(body)-ln) < flen {
			return nil, 0, ErrShortPacket
		}
		end := ln + int(flen)
		val := body[ln:end:end]
		body = body[end:]
		switch tag {
		case fieldName:
			p.Name = string(val)
		case fieldCD:
			c, err := cd.FromKey(d.intern(val))
			if err != nil {
				return nil, 0, fmt.Errorf("wire: bad CD field: %w", err)
			}
			if p.CDs == nil {
				rec.cd[0] = c
				p.CDs = rec.cd[:]
			} else {
				p.CDs = append(p.CDs, c)
			}
		case fieldPayload:
			p.Payload = val
			if len(val) == 0 {
				p.Payload = nil // an empty field is no payload, as Encode omits it
			}
		case fieldOrigin:
			p.Origin = d.intern(val)
		case fieldSeq:
			v, vn := binary.Uvarint(val)
			if vn <= 0 {
				return nil, 0, ErrShortPacket
			}
			p.Seq = v
		case fieldSentAt:
			if len(val) != 8 {
				return nil, 0, ErrShortPacket
			}
			p.SentAt = int64(binary.BigEndian.Uint64(val))
		case fieldCtlSeq:
			v, vn := binary.Uvarint(val)
			if vn <= 0 {
				return nil, 0, ErrShortPacket
			}
			p.CtlSeq = v
		case fieldTraceID:
			v, vn := binary.Uvarint(val)
			if vn <= 0 {
				return nil, 0, ErrShortPacket
			}
			p.TraceID = v
		case fieldAdvWin:
			v, vn := binary.Uvarint(val)
			if vn <= 0 || v > math.MaxUint32 {
				return nil, 0, ErrShortPacket
			}
			p.AdvWin = uint32(v)
		default:
			// Unknown and reserved fields are skipped, for forward and
			// backward compatibility.
		}
	}
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	return p, consumed, nil
}

// Size returns the encoded size of the packet in bytes, computed
// arithmetically without encoding (the simulators charge it per transmitted
// packet, so it must not allocate; TestAppendEncodeReuseAllocFree pins it).
// Invalid packets report 0, matching what Encode would produce.
func Size(p *Packet) int {
	if err := p.Validate(); err != nil {
		return 0
	}
	body := bodyLen(p)
	return 4 + uvarintLen(uint64(body)) + body
}

// MaxPayload bounds payload sizes accepted by Encapsulate, preventing
// pathological recursion from growing packets without limit.
const MaxPayload = math.MaxUint16

// Encapsulate wraps a Multicast packet into outer, an Interest with the given
// name, as the G-COPSS engine does before handing publications to the NDN
// engine over the dedicated IPC tunnel. The name is the covering RP's name
// followed by the CD key and whatever suffix the caller adds to keep it
// unique; outer is overwritten whole, and only on success.
func Encapsulate(name string, inner, outer *Packet) error {
	if inner.Type != TypeMulticast {
		return fmt.Errorf("wire: can only encapsulate Multicast, got %v", inner.Type)
	}
	enc, err := Encode(inner)
	if err != nil {
		return err
	}
	if len(enc) > MaxPayload {
		return fmt.Errorf("wire: encapsulated packet too large: %d bytes", len(enc))
	}
	// The trace context rides on the outer packet too: intermediate routers
	// only ever see the Interest, and must still be able to append hop
	// records for the encapsulated publication.
	*outer = Packet{
		Type:    TypeInterest,
		Name:    name,
		Payload: enc,
		SentAt:  inner.SentAt,
		TraceID: inner.TraceID,
	}
	return nil
}

// Decapsulate recovers the inner Multicast packet from an RP-bound Interest
// without a string table; see Decoder.Decapsulate.
func Decapsulate(outer *Packet) (*Packet, error) { return (*Decoder)(nil).Decapsulate(outer) }

// Decapsulate recovers the inner Multicast packet from an RP-bound Interest.
// The inner packet borrows outer.Payload under Decode's contract, which an
// immutable-after-send payload satisfies.
func (d *Decoder) Decapsulate(outer *Packet) (*Packet, error) {
	if outer.Type != TypeInterest {
		return nil, fmt.Errorf("wire: can only decapsulate Interest, got %v", outer.Type)
	}
	inner, _, err := d.Decode(outer.Payload)
	if err != nil {
		return nil, fmt.Errorf("wire: decapsulation failed: %w", err)
	}
	if inner.Type != TypeMulticast {
		return nil, fmt.Errorf("wire: encapsulated packet is %v, want Multicast", inner.Type)
	}
	return inner, nil
}
