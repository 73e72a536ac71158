package ckks

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"github.com/fastfhe/fast/internal/ring"
)

// Wire format: little-endian, each object prefixed with a one-byte tag and a
// version byte. Polynomials serialise as (limbs, degree, raw coefficients).
// Ciphertexts and plaintexts additionally carry level and scale; switching
// keys carry their method and group count. The format is stable within a
// major version of this library.

const (
	wireVersion byte = 1

	tagPoly       byte = 0x01
	tagCiphertext byte = 0x02
	tagPlaintext  byte = 0x03
	tagSwitchKey  byte = 0x04
	tagPublicKey  byte = 0x05
	tagSecretKey  byte = 0x06
	tagEvalKeys   byte = 0x07
)

func writeHeader(w io.Writer, tag byte) error {
	_, err := w.Write([]byte{tag, wireVersion})
	return err
}

func readHeader(r io.Reader, wantTag byte) error {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("ckks: reading header: %w", err)
	}
	if hdr[0] != wantTag {
		return fmt.Errorf("ckks: wrong object tag 0x%02x, want 0x%02x", hdr[0], wantTag)
	}
	if hdr[1] != wireVersion {
		return fmt.Errorf("ckks: unsupported wire version %d", hdr[1])
	}
	return nil
}

// wireChunkWords is the staging size, in coefficients, of the word codec
// below: coefficients are encoded little-endian into a pooled 32 KiB buffer
// and written chunk by chunk, so neither direction allocates a copy of the
// backing (encoding/binary's Write/Read of a []uint64 allocates a full one).
const wireChunkWords = 4096

var wireChunks = sync.Pool{New: func() any { return new([wireChunkWords * 8]byte) }}

// writeWords writes words to w as little-endian uint64s.
func writeWords(w io.Writer, words []uint64) error {
	buf := wireChunks.Get().(*[wireChunkWords * 8]byte)
	defer wireChunks.Put(buf)
	for len(words) > 0 {
		n := min(len(words), wireChunkWords)
		for i, v := range words[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

// readWords fills words from r's little-endian uint64s. Like io.ReadFull it
// returns io.EOF only when no byte was read, io.ErrUnexpectedEOF on a short
// read after that.
func readWords(r io.Reader, words []uint64) error {
	buf := wireChunks.Get().(*[wireChunkWords * 8]byte)
	defer wireChunks.Put(buf)
	for read := 0; len(words) > 0; read++ {
		n := min(len(words), wireChunkWords)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			if err == io.EOF && read > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		for i := range words[:n] {
			words[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		words = words[n:]
	}
	return nil
}

// writeU32s writes a short fixed header of little-endian uint32s (at most
// two).
func writeU32s(w io.Writer, vs ...uint32) error {
	var buf [8]byte
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	_, err := w.Write(buf[:4*len(vs)])
	return err
}

// readU32s reads len(vs) little-endian uint32s (at most two).
func readU32s(r io.Reader, vs []uint32) error {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:4*len(vs)]); err != nil {
		return err
	}
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return nil
}

// writeLevelScale writes the (int32 level, float64 scale) head of
// ciphertexts and plaintexts.
func writeLevelScale(w io.Writer, level int, scale float64) error {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(int32(level)))
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(scale))
	_, err := w.Write(buf[:])
	return err
}

// readLevelScale is the inverse of writeLevelScale.
func readLevelScale(r io.Reader) (level int, scale float64, err error) {
	var buf [12]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, err
	}
	return int(int32(binary.LittleEndian.Uint32(buf[:]))), math.Float64frombits(binary.LittleEndian.Uint64(buf[4:])), nil
}

// polyWireSize is the number of bytes writePoly emits for p.
func polyWireSize(p ring.Poly) int { return 2 + 8 + 8*p.Limbs()*p.N() }

func writePoly(w io.Writer, p ring.Poly) error {
	if err := writeHeader(w, tagPoly); err != nil {
		return err
	}
	if err := writeU32s(w, uint32(p.Limbs()), uint32(p.N())); err != nil {
		return err
	}
	// Arena fast path: the contiguous backing is the limb rows concatenated in
	// order, so one pass emits bytes identical to the per-row loop.
	if len(p.Backing) == p.Limbs()*p.N() {
		return writeWords(w, p.Backing)
	}
	for _, limb := range p.Coeffs {
		if err := writeWords(w, limb); err != nil {
			return err
		}
	}
	return nil
}

func readPoly(r io.Reader) (ring.Poly, error) {
	if err := readHeader(r, tagPoly); err != nil {
		return ring.Poly{}, err
	}
	var hdr [2]uint32
	if err := readU32s(r, hdr[:]); err != nil {
		return ring.Poly{}, err
	}
	limbs, n := int(hdr[0]), int(hdr[1])
	if limbs < 1 || limbs > 128 || n < 1 || n > 1<<20 {
		return ring.Poly{}, fmt.Errorf("ckks: implausible poly shape %dx%d", limbs, n)
	}
	p := ring.NewPoly(n, limbs)
	// One pass over the arena backing (row-concatenation order on the wire).
	if err := readWords(r, p.Backing); err != nil {
		return ring.Poly{}, err
	}
	return p, nil
}

// Serialize writes the ciphertext.
func (ct *Ciphertext) Serialize(w io.Writer) error {
	if err := writeHeader(w, tagCiphertext); err != nil {
		return err
	}
	if err := writeLevelScale(w, ct.Level, ct.Scale); err != nil {
		return err
	}
	if err := writePoly(w, ct.C0); err != nil {
		return err
	}
	return writePoly(w, ct.C1)
}

// ReadCiphertext deserialises a ciphertext and validates it against the
// parameter set.
func ReadCiphertext(r io.Reader, params *Parameters) (*Ciphertext, error) {
	if err := readHeader(r, tagCiphertext); err != nil {
		return nil, err
	}
	level, scale, err := readLevelScale(r)
	if err != nil {
		return nil, err
	}
	c0, err := readPoly(r)
	if err != nil {
		return nil, err
	}
	c1, err := readPoly(r)
	if err != nil {
		return nil, err
	}
	ct := &Ciphertext{C0: c0, C1: c1, Level: level, Scale: scale}
	if err := ct.validate(params); err != nil {
		return nil, err
	}
	return ct, nil
}

// Validate checks the ciphertext's structural invariants against the
// parameter set: level within the chain, limb counts consistent with the
// level, ring degree, and a finite positive scale. Violations wrap
// ErrInvalidCiphertext. It is cheap (no coefficient scan) — the fast package
// runs it at every public API boundary.
func (ct *Ciphertext) Validate(params *Parameters) error {
	if ct == nil || ct.C0.Coeffs == nil || ct.C1.Coeffs == nil {
		return fmt.Errorf("ckks: nil ciphertext: %w", ErrInvalidCiphertext)
	}
	if ct.Level < 0 || ct.Level > params.MaxLevel() {
		return fmt.Errorf("ckks: ciphertext level %d out of range [0,%d]: %w", ct.Level, params.MaxLevel(), ErrInvalidCiphertext)
	}
	if ct.C0.Limbs() != ct.Level+1 || ct.C1.Limbs() != ct.Level+1 {
		return fmt.Errorf("ckks: ciphertext limbs (%d,%d) inconsistent with level %d: %w",
			ct.C0.Limbs(), ct.C1.Limbs(), ct.Level, ErrInvalidCiphertext)
	}
	if ct.C0.N() != params.N() || ct.C1.N() != params.N() {
		return fmt.Errorf("ckks: ciphertext degree %d does not match N=%d: %w", ct.C0.N(), params.N(), ErrInvalidCiphertext)
	}
	if ct.Scale <= 0 || math.IsNaN(ct.Scale) || math.IsInf(ct.Scale, 0) {
		return fmt.Errorf("ckks: invalid scale %g: %w", ct.Scale, ErrInvalidCiphertext)
	}
	return nil
}

// validate is the deserialisation-strength check: the structural invariants
// of Validate plus a full coefficient-range scan (every residue must sit
// below its limb modulus), guarding against hostile or corrupted wire data.
func (ct *Ciphertext) validate(params *Parameters) error {
	if err := ct.Validate(params); err != nil {
		return err
	}
	for i := 0; i <= ct.Level; i++ {
		q := params.qChain[i]
		for _, row := range [][]uint64{ct.C0.Coeffs[i], ct.C1.Coeffs[i]} {
			for _, v := range row {
				if v >= q {
					return fmt.Errorf("ckks: coefficient %d out of range for limb %d (q=%d): %w", v, i, q, ErrInvalidCiphertext)
				}
			}
		}
	}
	return nil
}

// Serialize writes the plaintext.
func (pt *Plaintext) Serialize(w io.Writer) error {
	if err := writeHeader(w, tagPlaintext); err != nil {
		return err
	}
	if err := writeLevelScale(w, pt.Level, pt.Scale); err != nil {
		return err
	}
	return writePoly(w, pt.Value)
}

// ReadPlaintext deserialises a plaintext.
func ReadPlaintext(r io.Reader, params *Parameters) (*Plaintext, error) {
	if err := readHeader(r, tagPlaintext); err != nil {
		return nil, err
	}
	level, scale, err := readLevelScale(r)
	if err != nil {
		return nil, err
	}
	v, err := readPoly(r)
	if err != nil {
		return nil, err
	}
	pt := &Plaintext{Value: v, Level: level, Scale: scale}
	if pt.Level < 0 || pt.Level > params.MaxLevel() || v.Limbs() != pt.Level+1 {
		return nil, fmt.Errorf("ckks: plaintext shape inconsistent")
	}
	return pt, nil
}

// Serialize writes the public key.
func (pk *PublicKey) Serialize(w io.Writer) error {
	if err := writeHeader(w, tagPublicKey); err != nil {
		return err
	}
	if err := writePoly(w, pk.B); err != nil {
		return err
	}
	return writePoly(w, pk.A)
}

// BinarySize is the number of bytes Serialize writes.
func (pk *PublicKey) BinarySize() int { return 2 + polyWireSize(pk.B) + polyWireSize(pk.A) }

// ReadPublicKey deserialises a public key.
func ReadPublicKey(r io.Reader, params *Parameters) (*PublicKey, error) {
	if err := readHeader(r, tagPublicKey); err != nil {
		return nil, err
	}
	b, err := readPoly(r)
	if err != nil {
		return nil, err
	}
	a, err := readPoly(r)
	if err != nil {
		return nil, err
	}
	if b.Limbs() != len(params.qChain) || a.Limbs() != len(params.qChain) || b.N() != params.N() {
		return nil, fmt.Errorf("ckks: public key shape inconsistent with parameters")
	}
	return &PublicKey{B: b, A: a}, nil
}

// Serialize writes the secret key. Only the signed ternary coefficients go on
// the wire (one byte each): the NTT-form embeddings over the key rings are
// deterministic functions of the signed vector and the parameter set, so
// ReadSecretKey reconstructs them bit-identically. This keeps the snapshot
// compact and means the secret's serialised form is independent of which
// key-switching backends the parameter set enables.
func (sk *SecretKey) Serialize(w io.Writer) error {
	if err := writeHeader(w, tagSecretKey); err != nil {
		return err
	}
	buf := make([]byte, 4+len(sk.signed))
	binary.LittleEndian.PutUint32(buf, uint32(len(sk.signed)))
	for i, v := range sk.signed {
		if v < -1 || v > 1 {
			return fmt.Errorf("ckks: secret coefficient %d out of ternary range", v)
		}
		buf[4+i] = byte(int8(v))
	}
	_, err := w.Write(buf)
	return err
}

// BinarySize is the number of bytes Serialize writes.
func (sk *SecretKey) BinarySize() int { return 2 + 4 + len(sk.signed) }

// ReadSecretKey deserialises a secret key and rebuilds its NTT-form
// embeddings over every key ring the parameter set enables (Q++P always,
// Q++T when KLSS is available). Malformed input wraps ErrCorruptSnapshot.
func ReadSecretKey(r io.Reader, params *Parameters) (*SecretKey, error) {
	if err := readHeader(r, tagSecretKey); err != nil {
		return nil, err
	}
	var hdr [1]uint32
	if err := readU32s(r, hdr[:]); err != nil {
		return nil, err
	}
	n := hdr[0]
	if int(n) != params.N() {
		return nil, fmt.Errorf("ckks: secret key length %d does not match N=%d: %w", n, params.N(), ErrCorruptSnapshot)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	sk := &SecretKey{signed: make([]int64, n)}
	for i, b := range buf {
		v := int8(b)
		if v < -1 || v > 1 {
			return nil, fmt.Errorf("ckks: secret coefficient %d out of ternary range: %w", v, ErrCorruptSnapshot)
		}
		sk.signed[i] = int64(v)
	}
	sk.QP = params.ringQP.NewPoly()
	setSignedInto(params.ringQP, sk.signed, sk.QP)
	params.ringQP.NTT(sk.QP)
	if params.ringQT != nil {
		sk.QT = params.ringQT.NewPoly()
		setSignedInto(params.ringQT, sk.signed, sk.QT)
		params.ringQT.NTT(sk.QT)
	}
	return sk, nil
}

// Serialize writes the full evaluation-key set in a canonical order (methods
// ascending, Galois elements ascending) so identical key sets always produce
// identical bytes — the property the snapshot checksum relies on.
func (s *EvaluationKeySet) Serialize(w io.Writer) error {
	if err := writeHeader(w, tagEvalKeys); err != nil {
		return err
	}
	methods := make([]KeySwitchMethod, 0, len(s.Relin))
	for m := range s.Relin {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i] < methods[j] })
	if err := writeU32s(w, uint32(len(methods))); err != nil {
		return err
	}
	for _, m := range methods {
		galEls := make([]uint64, 0, len(s.Galois[m]))
		for el := range s.Galois[m] {
			galEls = append(galEls, el)
		}
		sort.Slice(galEls, func(i, j int) bool { return galEls[i] < galEls[j] })
		if err := writeU32s(w, uint32(m), uint32(len(galEls))); err != nil {
			return err
		}
		if err := s.Relin[m].Serialize(w); err != nil {
			return err
		}
		for _, el := range galEls {
			var elBuf [8]byte
			binary.LittleEndian.PutUint64(elBuf[:], el)
			if _, err := w.Write(elBuf[:]); err != nil {
				return err
			}
			if err := s.Galois[m][el].Serialize(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// BinarySize is the number of bytes Serialize writes.
func (s *EvaluationKeySet) BinarySize() int {
	size := 2 + 4
	for m, rlk := range s.Relin {
		size += 8 + rlk.BinarySize()
		for _, gk := range s.Galois[m] {
			size += 8 + gk.BinarySize()
		}
	}
	return size
}

// ReadEvaluationKeySet deserialises an evaluation-key set, validating every
// switching key's shape against the parameter set.
func ReadEvaluationKeySet(r io.Reader, params *Parameters) (*EvaluationKeySet, error) {
	if err := readHeader(r, tagEvalKeys); err != nil {
		return nil, err
	}
	var head [1]uint32
	if err := readU32s(r, head[:]); err != nil {
		return nil, err
	}
	nMethods := head[0]
	if nMethods > 2 {
		return nil, fmt.Errorf("ckks: implausible method count %d: %w", nMethods, ErrCorruptSnapshot)
	}
	set := NewEvaluationKeySet()
	for i := uint32(0); i < nMethods; i++ {
		var meta [2]uint32
		if err := readU32s(r, meta[:]); err != nil {
			return nil, err
		}
		method := KeySwitchMethod(meta[0])
		if method != Hybrid && method != KLSS {
			return nil, fmt.Errorf("ckks: unknown key-switch method %d in key set: %w", meta[0], ErrCorruptSnapshot)
		}
		rlk, err := ReadSwitchingKey(r, params)
		if err != nil {
			return nil, err
		}
		if rlk.Method != method {
			return nil, fmt.Errorf("ckks: relin key method %v under %v section: %w", rlk.Method, method, ErrCorruptSnapshot)
		}
		set.Relin[method] = rlk
		nGal := int(meta[1])
		if nGal < 0 || nGal > 1<<16 {
			return nil, fmt.Errorf("ckks: implausible galois key count %d: %w", nGal, ErrCorruptSnapshot)
		}
		for j := 0; j < nGal; j++ {
			var elBuf [8]byte
			if _, err := io.ReadFull(r, elBuf[:]); err != nil {
				return nil, err
			}
			el := binary.LittleEndian.Uint64(elBuf[:])
			gk, err := ReadSwitchingKey(r, params)
			if err != nil {
				return nil, err
			}
			if gk.Method != method {
				return nil, fmt.Errorf("ckks: galois key method %v under %v section: %w", gk.Method, method, ErrCorruptSnapshot)
			}
			set.addGalois(method, el, gk)
		}
	}
	return set, nil
}

// Serialize writes a switching key (all gadget pairs).
func (swk *SwitchingKey) Serialize(w io.Writer) error {
	if err := writeHeader(w, tagSwitchKey); err != nil {
		return err
	}
	if err := writeU32s(w, uint32(swk.Method), uint32(len(swk.B))); err != nil {
		return err
	}
	for j := range swk.B {
		if err := writePoly(w, swk.B[j]); err != nil {
			return err
		}
		if err := writePoly(w, swk.A[j]); err != nil {
			return err
		}
	}
	return nil
}

// BinarySize is the number of bytes Serialize writes.
func (swk *SwitchingKey) BinarySize() int {
	size := 2 + 8
	for j := range swk.B {
		size += polyWireSize(swk.B[j]) + polyWireSize(swk.A[j])
	}
	return size
}

// ReadSwitchingKey deserialises a switching key.
func ReadSwitchingKey(r io.Reader, params *Parameters) (*SwitchingKey, error) {
	if err := readHeader(r, tagSwitchKey); err != nil {
		return nil, err
	}
	var meta [2]uint32
	if err := readU32s(r, meta[:]); err != nil {
		return nil, err
	}
	method := KeySwitchMethod(meta[0])
	kr, _, err := params.keyRing(method)
	if err != nil {
		return nil, err
	}
	groups := int(meta[1])
	if groups < 1 || groups > 64 {
		return nil, fmt.Errorf("ckks: implausible group count %d", groups)
	}
	swk := &SwitchingKey{Method: method}
	for j := 0; j < groups; j++ {
		b, err := readPoly(r)
		if err != nil {
			return nil, err
		}
		a, err := readPoly(r)
		if err != nil {
			return nil, err
		}
		if b.Limbs() != len(kr.Moduli) || a.Limbs() != len(kr.Moduli) || b.N() != params.N() {
			return nil, fmt.Errorf("ckks: switching key group %d shape inconsistent", j)
		}
		swk.B = append(swk.B, b)
		swk.A = append(swk.A, a)
	}
	return swk, nil
}
