package durable

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame format (all integers little-endian):
//
//	+--------+--------+---------------------------+
//	| len u32| crc u32| payload (len bytes)       |
//	+--------+--------+---------------------------+
//
// crc is CRC32C (Castagnoli) over the payload. The payload is
//
//	op u8 | seq u64 | key u64 | val u64 (put/snap-record frames only)
//
// for the fixed-size ops, or — for a combined-batch group record —
//
//	op u8 | seq u64 | count u32 | count × (kind u8 | key u64 | val u64)
//
// where seq is the LSN of the *last* sub-operation (sub-op i carries
// seq-count+1+i) so the shard's flush watermark covers the whole batch.
// A fixed frame is 17 or 25 payload bytes and a group frame is
// 13 + 17·count; anything else fails validation, which is what makes a
// zeroed tail (len=0) or a length landing past EOF (truncated frame)
// detectable without a scan-forward heuristic. Recovery truncates a file
// at the first frame that fails any of these checks — torn tails are
// expected after a crash, and everything past the tear was never
// acknowledged.
const (
	frameHeaderSize = 8
	payloadDel      = 17 // op + seq + key
	payloadPut      = 25 // op + seq + key + val
	maxFrameSize    = frameHeaderSize + payloadPut
	groupFixed      = 13 // op + seq + count
	groupOpSize     = 17 // kind + key + val
)

// Frame op codes. WAL segments hold only put and delete frames; snapshot
// files hold a header, records, and a footer.
const (
	opPut        = 1
	opDel        = 2
	opSnapHeader = 3 // seq = base LSN, key = snapshot id
	opSnapRecord = 4 // key/val pair captured by the snapshot scan
	opSnapFooter = 5 // seq = base LSN, key = record count
	opGroup      = 6 // combined batch: one record, many sub-operations
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded record.
type frame struct {
	op  byte
	seq uint64
	key uint64
	val uint64
	// group holds a group frame's sub-operations (nil otherwise); seq is
	// then the last sub-op's LSN.
	group []groupRec
}

// groupRec is one sub-operation of a group frame.
type groupRec struct {
	key, val uint64
	del      bool
}

// hasVal reports whether the op carries a value word.
func hasVal(op byte) bool { return op == opPut || op == opSnapRecord }

// appendFrame encodes f onto buf.
func appendFrame(buf []byte, f frame) []byte {
	plen := payloadDel
	if hasVal(f.op) {
		plen = payloadPut
	}
	start := len(buf)
	var zero [maxFrameSize]byte
	buf = append(buf, zero[:frameHeaderSize+plen]...)
	p := buf[start+frameHeaderSize:]
	p[0] = f.op
	binary.LittleEndian.PutUint64(p[1:], f.seq)
	binary.LittleEndian.PutUint64(p[9:], f.key)
	if hasVal(f.op) {
		binary.LittleEndian.PutUint64(p[17:], f.val)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, castagnoli))
	return buf
}

// appendGroupFrame encodes a combined batch as one frame. lastSeq is the
// LSN of the final sub-operation; sub-op i carries lastSeq-len(ops)+1+i.
func appendGroupFrame(buf []byte, lastSeq uint64, ops []groupRec) []byte {
	plen := groupFixed + groupOpSize*len(ops)
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize+plen)...)
	p := buf[start+frameHeaderSize:]
	p[0] = opGroup
	binary.LittleEndian.PutUint64(p[1:], lastSeq)
	binary.LittleEndian.PutUint32(p[9:], uint32(len(ops)))
	o := groupFixed
	for _, g := range ops {
		if g.del {
			p[o] = opDel
		} else {
			p[o] = opPut
		}
		binary.LittleEndian.PutUint64(p[o+1:], g.key)
		binary.LittleEndian.PutUint64(p[o+9:], g.val)
		o += groupOpSize
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, castagnoli))
	return buf
}

// validPayloadLen screens a length word before anything else is trusted.
func validPayloadLen(plen int) bool {
	if plen == payloadDel || plen == payloadPut {
		return true
	}
	return plen >= groupFixed+groupOpSize && (plen-groupFixed)%groupOpSize == 0
}

// decodeFrame decodes the frame at data[off:]. ok=false means the bytes
// at off do not form a valid frame (torn tail, zeroed region, bit flip) —
// recovery stops reading the file there.
func decodeFrame(data []byte, off int) (f frame, size int, ok bool) {
	if off+frameHeaderSize > len(data) {
		return f, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	if !validPayloadLen(plen) {
		return f, 0, false
	}
	if off+frameHeaderSize+plen > len(data) {
		return f, 0, false
	}
	p := data[off+frameHeaderSize : off+frameHeaderSize+plen]
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
		return f, 0, false
	}
	f.op = p[0]
	f.seq = binary.LittleEndian.Uint64(p[1:])
	switch f.op {
	case opPut, opSnapRecord:
		if plen != payloadPut {
			return f, 0, false
		}
		f.key = binary.LittleEndian.Uint64(p[9:])
		f.val = binary.LittleEndian.Uint64(p[17:])
	case opDel, opSnapHeader, opSnapFooter:
		if plen != payloadDel {
			return f, 0, false
		}
		f.key = binary.LittleEndian.Uint64(p[9:])
	case opGroup:
		count := int(binary.LittleEndian.Uint32(p[9:]))
		if count <= 0 || plen != groupFixed+groupOpSize*count {
			return f, 0, false
		}
		f.group = make([]groupRec, count)
		o := groupFixed
		for i := range f.group {
			kind := p[o]
			if kind != opPut && kind != opDel {
				return f, 0, false
			}
			f.group[i] = groupRec{
				key: binary.LittleEndian.Uint64(p[o+1:]),
				val: binary.LittleEndian.Uint64(p[o+9:]),
				del: kind == opDel,
			}
			o += groupOpSize
		}
	default:
		return f, 0, false
	}
	return f, frameHeaderSize + plen, true
}
