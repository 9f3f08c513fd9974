package framebuffer

import (
	"compress/zlib"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// PNGEncoder writes Images as 8-bit RGB PNGs in one pass: each row is
// composited over white (the conversion Image.ToRGBA makes), Up-filtered
// and fed to a zlib stream at BestSpeed as it is converted, and the file
// — signature, IHDR, one IDAT, IEND — is assembled in a retained buffer
// and handed to the writer in one Write. The zlib writer, the row buffers and the
// file buffer survive between Encode calls, so a serving path that
// encodes a frame per request allocates nothing once warm. The zero
// value is ready to use. An encoder is not safe for concurrent use; give
// each worker its own.
type PNGEncoder struct {
	zw   *zlib.Writer
	file pngFile
	prev []byte // the previous row's RGB bytes, the Up filter's predictor
	line []byte // one filtered scanline: filter type, then RGB
}

// pngHeader is the PNG file signature followed by the IHDR chunk's
// length.
var pngHeader = [12]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n', 0, 0, 0, 13}

// idatHeader opens the IDAT chunk; Encode patches its length in once the
// compressed size is known.
var idatHeader = [8]byte{0, 0, 0, 0, 'I', 'D', 'A', 'T'}

// pngEnd is the IEND chunk: zero length, type, CRC.
var pngEnd = [12]byte{0, 0, 0, 0, 'I', 'E', 'N', 'D', 0xae, 0x42, 0x60, 0x82}

const filterUp = 2

// Encode writes im as PNG to w. The pixels decode to exactly
// im.ToRGBA(); the bytes differ from the standard library encoder's
// (which searches filters per row at the default compression level).
//
//insitu:noalloc
func (e *PNGEncoder) Encode(w io.Writer, im *Image) error {
	if im.W <= 0 || im.H <= 0 || im.W > math.MaxInt32 || im.H > math.MaxInt32 {
		//insitu:noalloc-ok error path: an invalid size is never encoded
		return fmt.Errorf("framebuffer: invalid PNG size %dx%d", im.W, im.H)
	}
	rowBytes := 3 * im.W
	if cap(e.prev) < rowBytes {
		//insitu:noalloc-ok capacity-guarded row buffers: reused across frames at steady resolution
		e.prev, e.line = make([]byte, rowBytes), make([]byte, 1+rowBytes)
	}
	prev, line := e.prev[:rowBytes], e.line[:1+rowBytes]
	clear(prev)
	line[0] = filterUp

	f := &e.file
	*f = (*f)[:0]
	f.Write(pngHeader[:])
	// IHDR: type, width, height, 8 bits per sample, color type 2
	// (truecolor); compression, filter method and interlace stay 0.
	var ihdr [17]byte
	copy(ihdr[:4], "IHDR")
	putUint32(ihdr[4:], uint32(im.W))
	putUint32(ihdr[8:], uint32(im.H))
	ihdr[12], ihdr[13] = 8, 2
	f.Write(ihdr[:])
	f.closeChunk(len(*f) - len(ihdr))
	idat := len(*f)
	f.Write(idatHeader[:])
	if e.zw == nil {
		var err error
		//insitu:noalloc-ok the compressor is built once per encoder, then Reset
		if e.zw, err = zlib.NewWriterLevel(f, zlib.BestSpeed); err != nil {
			return err
		}
	} else {
		//insitu:noalloc-ok Reset reuses the compressor's window and tables
		e.zw.Reset(f)
	}

	for y := 0; y < im.H; y++ {
		row := im.Color[4*y*im.W : 4*(y+1)*im.W]
		for x := 0; x < im.W; x++ {
			px := row[4*x : 4*x+4 : 4*x+4]
			bg := 1 - px[3]
			r, g, b := clamp8(px[0]+bg), clamp8(px[1]+bg), clamp8(px[2]+bg)
			up := prev[3*x : 3*x+3 : 3*x+3]
			out := line[1+3*x : 4+3*x : 4+3*x]
			out[0], out[1], out[2] = r-up[0], g-up[1], b-up[2]
			up[0], up[1], up[2] = r, g, b
		}
		//insitu:noalloc-ok deflate into the retained file buffer
		if _, err := e.zw.Write(line); err != nil {
			return err
		}
	}
	//insitu:noalloc-ok flushes the final deflate block into the retained file buffer
	if err := e.zw.Close(); err != nil {
		return err
	}

	putUint32((*f)[idat:], uint32(len(*f)-idat-len(idatHeader)))
	f.closeChunk(idat + 4)
	f.Write(pngEnd[:])
	//insitu:noalloc-ok the one write of the finished file; the caller owns what w does with it
	_, err := w.Write(*f)
	return err
}

// pngFile is the file being encoded, retained across frames; it is also
// the io.Writer the zlib stream deflates into.
type pngFile []byte

func (f *pngFile) Write(p []byte) (int, error) {
	//insitu:noalloc-ok grows to the steady file size once, then reuses it
	*f = append(*f, p...)
	return len(p), nil
}

// closeChunk appends the CRC of the chunk whose type starts at byte from.
func (f *pngFile) closeChunk(from int) {
	var crc [4]byte
	//insitu:noalloc-ok crc32 over the retained file bytes, no heap
	putUint32(crc[:], crc32.ChecksumIEEE((*f)[from:]))
	f.Write(crc[:])
}

// putUint32 stores v big-endian in b[:4], PNG's byte order.
func putUint32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
