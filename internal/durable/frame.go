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
// so a frame is 17 or 25 payload bytes; anything else fails validation,
// which is what makes a zeroed tail (len=0) or a length landing past EOF
// (truncated frame) detectable without a scan-forward heuristic. Recovery
// truncates a file at the first frame that fails any of these checks —
// torn tails are expected after a crash, and everything past the tear was
// never acknowledged. The one thing it does not truncate is a frame that
// is whole (see framePayload) yet not one this version reads: it was
// written, and synced, by a version with frame kinds this one does not
// have, and so was everything behind it.
const (
	frameHeaderSize = 8
	payloadDel      = 17 // op + seq + key
	payloadPut      = 25 // op + seq + key + val
	maxFrameSize    = frameHeaderSize + payloadPut
)

// Frame op codes. WAL segments hold only put and delete frames; snapshot
// files hold a header, records, and a footer.
const (
	opPut        = 1
	opDel        = 2
	opSnapHeader = 3 // seq = base LSN, key = snapshot id
	opSnapRecord = 4 // key/val pair captured by the snapshot scan
	opSnapFooter = 5 // seq = base LSN, key = record count
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded record.
type frame struct {
	op  byte
	seq uint64
	key uint64
	val uint64
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

// framePayload returns the payload of the frame at data[off:] if the frame
// is whole: a non-zero length word that fits inside the file and a payload
// its CRC verifies. A tear cannot look like this — a zeroed tail has length
// 0, a short tail a length past EOF, a partial overwrite a bad CRC.
func framePayload(data []byte, off int) ([]byte, bool) {
	if off+frameHeaderSize > len(data) {
		return nil, false
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	if plen == 0 || plen > len(data)-off-frameHeaderSize {
		return nil, false
	}
	p := data[off+frameHeaderSize : off+frameHeaderSize+plen]
	return p, crc32.Checksum(p, castagnoli) == binary.LittleEndian.Uint32(data[off+4:])
}

// decodeFrame decodes the frame at data[off:]. ok=false means the bytes
// at off do not form a frame this version reads: a tear (torn tail, zeroed
// region, bit flip), where recovery stops reading the file, or a whole
// frame of another length or op, which only framePayload tells apart.
func decodeFrame(data []byte, off int) (f frame, size int, ok bool) {
	p, whole := framePayload(data, off)
	if !whole || (len(p) != payloadDel && len(p) != payloadPut) {
		return f, 0, false
	}
	f.op = p[0]
	f.seq = binary.LittleEndian.Uint64(p[1:])
	switch f.op {
	case opPut, opSnapRecord:
		if len(p) != payloadPut {
			return f, 0, false
		}
		f.key = binary.LittleEndian.Uint64(p[9:])
		f.val = binary.LittleEndian.Uint64(p[17:])
	case opDel, opSnapHeader, opSnapFooter:
		if len(p) != payloadDel {
			return f, 0, false
		}
		f.key = binary.LittleEndian.Uint64(p[9:])
	default:
		return f, 0, false
	}
	return f, frameHeaderSize + len(p), true
}
