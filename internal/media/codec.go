package media

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"acacia/internal/sim"
)

// This file implements a real (if minimal) lossy grayscale codec in the
// JPEG mold: 8x8 block DCT, uniform quantization scaled by a quality
// factor, zig-zag run-length coding of coefficients, and a fixed-Golomb
// entropy stage. The AR front-end runs it on synthetic frames so the
// compression path does actual work with quality/size trade-offs, rather
// than only consulting the calibrated ratio tables.

// Frame is a grayscale image.
type Frame struct {
	W, H int
	Pix  []uint8 // row-major, len W*H
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y).
func (f *Frame) At(x, y int) uint8 { return f.Pix[y*f.W+x] }

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v uint8) { f.Pix[y*f.W+x] = v }

// SyntheticFrame renders a deterministic test scene: smooth gradients with
// a few rectangular "objects" and mild noise — compressible, but not
// trivially so, like a store shelf.
func SyntheticFrame(w, h int, seed uint64) *Frame {
	rng := sim.NewRNG(seed)
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 96 + 64*math.Sin(float64(x)/37) + 48*math.Cos(float64(y)/23)
			f.Set(x, y, clamp8(v+4*rng.NormFloat64()))
		}
	}
	// Overlay a handful of high-contrast rectangles.
	for i := 0; i < 6; i++ {
		x0, y0 := rng.Intn(w*3/4), rng.Intn(h*3/4)
		bw, bh := w/8+rng.Intn(w/8), h/8+rng.Intn(h/8)
		shade := uint8(rng.Intn(256))
		for y := y0; y < y0+bh && y < h; y++ {
			for x := x0; x < x0+bw && x < w; x++ {
				f.Set(x, y, shade)
			}
		}
	}
	return f
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

const blockSize = 8

// zigzag is the standard JPEG coefficient scan order for an 8x8 block.
var zigzag = buildZigzag()

func buildZigzag() [64]int {
	var order [64]int
	idx := 0
	for s := 0; s < 15; s++ {
		if s%2 == 0 { // up-right
			for y := min(s, 7); y >= 0 && s-y <= 7; y-- {
				order[idx] = y*8 + (s - y)
				idx++
			}
		} else { // down-left
			for x := min(s, 7); x >= 0 && s-x <= 7; x-- {
				order[idx] = (s-x)*8 + x
				idx++
			}
		}
	}
	return order
}

// quantStep maps a quality setting (1..100) to a uniform quantizer step:
// high quality = fine steps. The mapping follows the libjpeg convention of
// halving the base table at quality 100 and doubling toward quality 1.
func quantStep(quality int) float64 {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale float64
	if quality < 50 {
		scale = 5000 / float64(quality)
	} else {
		scale = 200 - 2*float64(quality)
	}
	step := 16 * scale / 100 // base step 16 at quality 50
	if step < 0.25 {
		step = 0.25
	}
	return step
}

// dct8 performs a forward 8-point DCT-II on each row of the block, then
// each column (separable 2-D DCT).
func dct2d(block *[64]float64) {
	var tmp [64]float64
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var sum float64
			for x := 0; x < 8; x++ {
				sum += block[y*8+x] * dctCos[x][u]
			}
			tmp[y*8+u] = sum * dctScale(u)
		}
	}
	for x := 0; x < 8; x++ {
		for v := 0; v < 8; v++ {
			var sum float64
			for y := 0; y < 8; y++ {
				sum += tmp[y*8+x] * dctCos[y][v]
			}
			block[v*8+x] = sum * dctScale(v)
		}
	}
}

// idct2d inverts dct2d.
func idct2d(block *[64]float64) {
	var tmp [64]float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var sum float64
			for v := 0; v < 8; v++ {
				sum += dctScale(v) * block[v*8+x] * dctCos[y][v]
			}
			tmp[y*8+x] = sum
		}
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var sum float64
			for u := 0; u < 8; u++ {
				sum += dctScale(u) * tmp[y*8+u] * dctCos[x][u]
			}
			block[y*8+x] = sum
		}
	}
}

var dctCos = buildDCTCos()

func buildDCTCos() [8][8]float64 {
	var c [8][8]float64
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			c[x][u] = math.Cos((2*float64(x) + 1) * float64(u) * math.Pi / 16)
		}
	}
	return c
}

func dctScale(u int) float64 {
	if u == 0 {
		return math.Sqrt(1.0 / 8)
	}
	return math.Sqrt(2.0 / 8)
}

// Compress encodes the frame at the given quality (1..100). The output is
// self-describing (dimensions + quality in the header).
func Compress(f *Frame, quality int) ([]byte, error) {
	if f.W%blockSize != 0 || f.H%blockSize != 0 {
		return nil, fmt.Errorf("media: dimensions %dx%d not multiples of %d", f.W, f.H, blockSize)
	}
	step := quantStep(quality)
	out := make([]byte, 0, f.W*f.H/4)
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(f.W))
	binary.BigEndian.PutUint32(hdr[4:], uint32(f.H))
	hdr[8] = uint8(quality)
	hdr[9] = 0 // reserved
	out = append(out, hdr[:]...)

	w := &bitWriter{}
	var block [64]float64
	for by := 0; by < f.H; by += blockSize {
		for bx := 0; bx < f.W; bx += blockSize {
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					block[y*8+x] = float64(f.At(bx+x, by+y)) - 128
				}
			}
			dct2d(&block)
			// Quantize + zig-zag run-length: (run of zeros, value) pairs.
			run := 0
			for _, zi := range zigzag {
				q := int(math.Round(block[zi] / step))
				if q == 0 {
					run++
					continue
				}
				w.writeGolomb(uint32(run))
				w.writeSigned(q)
				run = 0
			}
			w.writeGolomb(uint32(run))
			w.writeSigned(0) // block terminator: zero value after final run
		}
	}
	return append(out, w.bytes()...), nil
}

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("media: corrupt compressed frame")

// Decompress decodes a frame produced by Compress.
func Decompress(data []byte) (*Frame, error) {
	if len(data) < 10 {
		return nil, ErrCorrupt
	}
	w := int(binary.BigEndian.Uint32(data[0:]))
	h := int(binary.BigEndian.Uint32(data[4:]))
	quality := int(data[8])
	if w <= 0 || h <= 0 || w > 1<<15 || h > 1<<15 || w%blockSize != 0 || h%blockSize != 0 {
		return nil, ErrCorrupt
	}
	step := quantStep(quality)
	r := &bitReader{data: data[10:]}
	f := NewFrame(w, h)
	var block [64]float64
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			for i := range block {
				block[i] = 0
			}
			// Read (run, value) pairs until the block terminator (value 0);
			// the terminator is always present, even for blocks whose last
			// scan position holds a nonzero coefficient.
			pos := 0
			for {
				run, err := r.readGolomb()
				if err != nil {
					return nil, err
				}
				v, err := r.readSigned()
				if err != nil {
					return nil, err
				}
				pos += int(run)
				if v == 0 {
					if pos > 64 {
						return nil, ErrCorrupt
					}
					break
				}
				if pos >= 64 {
					return nil, ErrCorrupt
				}
				block[zigzag[pos]] = float64(v) * step
				pos++
			}
			idct2d(&block)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					f.Set(bx+x, by+y, clamp8(block[y*8+x]+128))
				}
			}
		}
	}
	return f, nil
}

// PSNR reports the peak signal-to-noise ratio between two equal-size
// frames, in dB; +Inf for identical frames.
func PSNR(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("media: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// --- bit-level Golomb coding ---

type bitWriter struct {
	buf []byte
	cur byte
	n   uint8
}

func (w *bitWriter) writeBit(b uint32) {
	w.cur = w.cur<<1 | byte(b&1)
	w.n++
	if w.n == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.n = 0, 0
	}
}

// writeGolomb writes v in Exp-Golomb order-0: n zero bits, then the
// (n+1)-bit value v+1.
func (w *bitWriter) writeGolomb(v uint32) {
	x := v + 1
	bits := 0
	for t := x; t > 1; t >>= 1 {
		bits++
	}
	for i := 0; i < bits; i++ {
		w.writeBit(0)
	}
	for i := bits; i >= 0; i-- {
		w.writeBit(x >> uint(i))
	}
}

// writeSigned maps a signed value to unsigned (zig-zag) and Golomb-codes it.
func (w *bitWriter) writeSigned(v int) {
	var u uint32
	if v >= 0 {
		u = uint32(v) << 1
	} else {
		u = uint32(-v)<<1 - 1
	}
	w.writeGolomb(u)
}

func (w *bitWriter) bytes() []byte {
	out := w.buf
	if w.n > 0 {
		out = append(out, w.cur<<(8-w.n))
	}
	return out
}

type bitReader struct {
	data []byte
	pos  int // bit position
}

func (r *bitReader) readBit() (uint32, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.data) {
		return 0, ErrCorrupt
	}
	bit := uint32(r.data[byteIdx]>>(7-uint(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

func (r *bitReader) readGolomb() (uint32, error) {
	zeros := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, ErrCorrupt
		}
	}
	x := uint32(1)
	for i := 0; i < zeros; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		x = x<<1 | b
	}
	return x - 1, nil
}

func (r *bitReader) readSigned() (int, error) {
	u, err := r.readGolomb()
	if err != nil {
		return 0, err
	}
	if u&1 == 0 {
		return int(u >> 1), nil
	}
	return -int((u + 1) >> 1), nil
}
