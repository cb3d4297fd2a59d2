package wire

import "hash/crc32"

// castagnoliPoly is the reflected CRC-32C polynomial, matching the
// crc32.Castagnoli table the frame codec uses.
const castagnoliPoly = 0x82F63B78

// PayloadCRC returns the CRC-32C of p — the same digest the frame codec
// writes into every frame header. Exposed so the engine can record
// per-chunk sums in the session ledger without re-deriving the table.
func PayloadCRC(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// gf2MatrixTimes multiplies the 32×32 GF(2) matrix mat by the column
// vector vec.
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
	}
	return sum
}

// gf2MatrixSquare sets square = mat·mat.
func gf2MatrixSquare(square, mat *[32]uint32) {
	for i := range square {
		square[i] = gf2MatrixTimes(mat, mat[i])
	}
}

// CRCOperator is the GF(2) matrix advancing a CRC-32C through a fixed
// number of zero bytes. Build one with MakeCRCOperator and reuse it to
// fold many same-length chunks — rebuilding the matrix per chunk costs
// ~40 matrix squarings each time, while applying a prebuilt operator is
// 32 conditional xors.
type CRCOperator [32]uint32

// MakeCRCOperator returns the operator for n zero bytes.
func MakeCRCOperator(n int64) CRCOperator {
	var even, odd, out [32]uint32

	// odd = operator matrix for one zero bit.
	odd[0] = castagnoliPoly
	row := uint32(1)
	for i := 1; i < 32; i++ {
		odd[i] = row
		row <<= 1
	}
	// Identity, in case n has no set bits (n <= 0).
	row = 1
	for i := 0; i < 32; i++ {
		out[i] = row
		row <<= 1
	}
	if n <= 0 {
		return out
	}
	// even = two zero bits, odd = four.
	gf2MatrixSquare(&even, &odd)
	gf2MatrixSquare(&odd, &even)

	// Compose the operators for the set bits of n, in zero *bytes*:
	// each iteration squares (starting at 8 bits = 1 byte).
	cur := &odd
	next := &even
	first := true
	for n > 0 {
		gf2MatrixSquare(next, cur)
		cur, next = next, cur
		if n&1 != 0 {
			if first {
				out = *cur
				first = false
			} else {
				var composed [32]uint32
				for i := 0; i < 32; i++ {
					composed[i] = gf2MatrixTimes(cur, out[i])
				}
				out = composed
			}
		}
		n >>= 1
	}
	return out
}

// Apply advances crc through the operator's zero-byte span.
func (op *CRCOperator) Apply(crc uint32) uint32 {
	return gf2MatrixTimes((*[32]uint32)(op), crc)
}

// CombineCRC returns CRC(A||B) given crcA = CRC(A), crcB = CRC(B), and
// lenB = len(B), without touching the data (the zlib crc32_combine
// construction: advance crcA through lenB zero bytes, then xor in crcB).
// It lets both transfer ends derive a whole-file CRC from per-chunk CRCs
// accumulated out of order, so end-to-end file verification costs no
// second pass over the data. To fold many same-length chunks, prefer
// FoldChunkCRCs, which builds the zero-byte operator once.
func CombineCRC(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	op := MakeCRCOperator(lenB)
	return op.Apply(crcA) ^ crcB
}

// BatchCRC appends to dst the per-chunk CRC-32C sums of p tiled into
// chunk-sized pieces (the last piece may be short) and returns the
// extended slice: one call over a contiguous run yields exactly the sums
// one PayloadCRC call per piece would.
func BatchCRC(dst []uint32, p []byte, chunk int) []uint32 {
	if chunk <= 0 {
		if len(p) == 0 {
			return dst
		}
		return append(dst, crc32.Checksum(p, castagnoli))
	}
	for len(p) > 0 {
		n := chunk
		if n > len(p) {
			n = len(p)
		}
		dst = append(dst, crc32.Checksum(p[:n], castagnoli))
		p = p[n:]
	}
	return dst
}

// FoldChunkCRCs combines per-chunk CRC-32C sums — chunkBytes-sized
// chunks tiling total bytes, the last one possibly short — into the
// whole-buffer CRC. This is the shared fold behind the sender's FileSum
// announcements and the receiver ledger's commit-time verification.
func FoldChunkCRCs(sums []uint32, chunkBytes, total int64) uint32 {
	if len(sums) == 0 {
		return 0
	}
	crc := sums[0]
	if len(sums) == 1 {
		return crc
	}
	full := MakeCRCOperator(chunkBytes)
	for i := 1; i < len(sums); i++ {
		clen := total - int64(i)*chunkBytes
		if clen >= chunkBytes {
			crc = full.Apply(crc) ^ sums[i]
		} else {
			crc = CombineCRC(crc, sums[i], clen) // odd tail: one-off operator
		}
	}
	return crc
}
