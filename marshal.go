package fast

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"github.com/fastfhe/fast/internal/ckks"
)

// Serialize writes the ciphertext to w in the package's versioned binary wire
// format (tagged header, level, scale, then the RNS coefficient rows of both
// components). Because ciphertext polynomials are arena-backed (one contiguous
// []uint64 per poly, rows in limb order), each component is emitted as a
// single encoding/binary pass over its backing — the wire bytes are identical
// to the historical per-row encoding. The format is what the fastd serving
// daemon moves over HTTP; ReadCiphertext is the inverse.
func (c *Ciphertext) Serialize(w io.Writer) error {
	return c.ct.Serialize(w)
}

// ReadCiphertext reads a ciphertext in the Serialize wire format and
// validates it against the context's parameters: level within the chain, limb
// counts consistent with the level, coefficient rows inside their moduli, and
// a finite positive scale. Malformed or truncated input returns an error
// wrapping fast.ErrInvalidCiphertext — never a panic and never a structurally
// broken handle.
func (c *Context) ReadCiphertext(r io.Reader) (*Ciphertext, error) {
	ct, err := ckks.ReadCiphertext(r, c.params)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{ct}, nil
}

// ---- Session snapshots -----------------------------------------------------

// SessionMeta is the serving-layer metadata a session snapshot carries
// alongside the cryptographic material. The fields are owned by the caller
// (fastd stores its session ID, creation time and fault scenario here); the
// snapshot machinery itself only interprets Restores.
type SessionMeta struct {
	// ID is the serving-layer session identifier.
	ID string `json:"id,omitempty"`
	// CreatedUnixNano is the session's creation time.
	CreatedUnixNano int64 `json:"created_unix_nano,omitempty"`
	// Restores counts completed restorations of this session. It doubles as
	// the encryptor's reseeding epoch: Restore derives the deterministic
	// sampler seed from it, so bumping the counter before each restoration
	// guarantees a restored session never replays pre-crash encryption
	// randomness (randomness reuse under one public key leaks plaintext
	// differences).
	Restores uint64 `json:"restores,omitempty"`
	// FaultScenario names the fault-injection scenario the session was
	// created with ("" or "none" when unfaulted), so a restoring daemon can
	// reattach the same plan.
	FaultScenario string `json:"fault_scenario,omitempty"`
}

// Snapshot wire layout (little-endian):
//
//	magic   [8]byte  "FASTSNP\x01"
//	hdrLen  uint32   length of the JSON header
//	header  []byte   {"meta":..., "config":..., "default_method":...}
//	keyLen  uint64   length of the key payload
//	keys    []byte   sk | pk | evaluation-key set (internal/ckks wire format)
//	sum     [32]byte SHA-256 over every preceding byte
//
// The checksum is verified BEFORE any parsing: a flipped bit anywhere in the
// stream surfaces as ErrCorruptSnapshot, never as a structurally plausible
// but wrong key set. Canonical ordering in the key-set serialisation makes
// identical sessions produce identical snapshot bytes.
var snapshotMagic = [8]byte{'F', 'A', 'S', 'T', 'S', 'N', 'P', 1}

const (
	snapshotMaxHeader = 1 << 20 // sanity bound on the JSON header
	snapshotMaxKeys   = 1 << 31 // sanity bound on the key payload
)

// snapshotHeader is the JSON head of a snapshot: everything needed to
// recompile the parameter set plus the serving-layer metadata.
type snapshotHeader struct {
	Meta          SessionMeta   `json:"meta"`
	Config        ContextConfig `json:"config"`
	DefaultMethod string        `json:"default_method"`
}

// SessionSnapshot is a decoded (checksum-verified) session snapshot whose
// key material has not yet been expanded into a Context. Callers may adjust
// Meta between DecodeSessionSnapshot and Restore — the restore path bumps
// Meta.Restores so each restoration gets a fresh encryptor stream.
type SessionSnapshot struct {
	Meta          SessionMeta
	Config        ContextConfig
	DefaultMethod Method

	keyBytes []byte
}

// WriteSessionSnapshot serialises the context's full session state — resolved
// configuration, secret/public/relinearization/Galois key material — plus the
// caller's metadata, in the versioned, checksummed snapshot format.
// ReadSessionSnapshot (or DecodeSessionSnapshot + Restore) is the inverse.
func (c *Context) WriteSessionSnapshot(w io.Writer, meta SessionMeta) error {
	hdr, err := json.Marshal(snapshotHeader{
		Meta:          meta,
		Config:        c.cfg,
		DefaultMethod: c.defaultMethod.String(),
	})
	if err != nil {
		return fmt.Errorf("fast: marshal snapshot header: %w", err)
	}
	// The key payload is streamed straight to w: its length is known up
	// front, and the checksum is computed on the way through, so no copy of
	// the (multi-megabyte) key material is ever buffered.
	keyLen := c.sk.BinarySize() + c.pk.BinarySize() + c.keys.BinarySize()
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(w, h)}
	head := make([]byte, 0, 8+4+len(hdr)+8)
	head = append(head, snapshotMagic[:]...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(hdr)))
	head = append(head, hdr...)
	head = binary.LittleEndian.AppendUint64(head, uint64(keyLen))
	if _, err := cw.Write(head); err != nil {
		return err
	}
	cw.n = 0
	if err := c.sk.Serialize(cw); err != nil {
		return fmt.Errorf("fast: serialize secret key: %w", err)
	}
	if err := c.pk.Serialize(cw); err != nil {
		return fmt.Errorf("fast: serialize public key: %w", err)
	}
	if err := c.keys.Serialize(cw); err != nil {
		return fmt.Errorf("fast: serialize evaluation keys: %w", err)
	}
	if cw.n != keyLen {
		return fmt.Errorf("fast: snapshot key payload is %d bytes, header says %d", cw.n, keyLen)
	}
	_, err = w.Write(h.Sum(nil))
	return err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// DecodeSessionSnapshot verifies and parses a session snapshot: checksum
// first (any corruption — truncation, bit flips, a foreign file — returns an
// error wrapping ErrCorruptSnapshot before a single key byte is parsed),
// then the JSON header. Key material stays in its wire form until Restore.
func DecodeSessionSnapshot(data []byte) (*SessionSnapshot, error) {
	const minLen = 8 + 4 + 8 + sha256.Size
	if len(data) < minLen {
		return nil, fmt.Errorf("fast: snapshot truncated (%d bytes): %w", len(data), ErrCorruptSnapshot)
	}
	if !bytes.Equal(data[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("fast: bad snapshot magic: %w", ErrCorruptSnapshot)
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("fast: snapshot checksum mismatch: %w", ErrCorruptSnapshot)
	}

	rest := body[8:]
	hdrLen := binary.LittleEndian.Uint32(rest[:4])
	rest = rest[4:]
	if hdrLen > snapshotMaxHeader || int(hdrLen) > len(rest) {
		return nil, fmt.Errorf("fast: snapshot header length %d out of range: %w", hdrLen, ErrCorruptSnapshot)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(rest[:hdrLen], &hdr); err != nil {
		return nil, fmt.Errorf("fast: snapshot header: %v: %w", err, ErrCorruptSnapshot)
	}
	rest = rest[hdrLen:]
	if len(rest) < 8 {
		return nil, fmt.Errorf("fast: snapshot truncated before key payload: %w", ErrCorruptSnapshot)
	}
	keyLen := binary.LittleEndian.Uint64(rest[:8])
	rest = rest[8:]
	if keyLen > snapshotMaxKeys || keyLen != uint64(len(rest)) {
		return nil, fmt.Errorf("fast: snapshot key payload length %d does not match %d remaining bytes: %w",
			keyLen, len(rest), ErrCorruptSnapshot)
	}
	method, _, err := ParseMethod(hdr.DefaultMethod)
	if err != nil {
		return nil, fmt.Errorf("fast: snapshot default method: %v: %w", err, ErrCorruptSnapshot)
	}
	return &SessionSnapshot{
		Meta:          hdr.Meta,
		Config:        hdr.Config,
		DefaultMethod: method,
		keyBytes:      rest,
	}, nil
}

// Restore expands the snapshot into a ready-to-use Context: the parameter
// set is recompiled from the embedded configuration (deterministic — the
// same config always yields bit-identical ring tables) and the persisted key
// material is installed in place of key generation, so restored sessions
// decrypt pre-crash ciphertexts bit-identically. Restoration costs the
// deserialisation plus NTT-table compilation, never a keygen.
//
// Options may attach an observer or fault plan and override the default
// key-switching method; options that would alter the parameter description
// (WithRotations, WithKLSS, WithSeed, WithParallelism...) are rejected with
// ErrInvalidParameters, because the persisted keys were generated for
// exactly the embedded configuration.
//
// The encryptor's deterministic sampler is seeded from Meta.Restores, so
// each restoration epoch draws a fresh randomness stream (see SessionMeta).
func (s *SessionSnapshot) Restore(opts ...Option) (*Context, error) {
	cfg := s.Config
	cfg.Rotations = append([]int(nil), s.Config.Rotations...)
	settings := contextSettings{cfg: &cfg, defaultMethod: s.DefaultMethod}
	for _, o := range opts {
		o(&settings)
	}
	if !reflect.DeepEqual(cfg, s.Config) {
		return nil, fmt.Errorf("fast: config-mutating options are invalid on snapshot restore "+
			"(keys were generated for the persisted config): %w", ErrInvalidParameters)
	}
	if settings.defaultMethod == KLSS && !cfg.EnableKLSS {
		return nil, fmt.Errorf("fast: WithDefaultMethod(KLSS) requires EnableKLSS: %w", ErrMethodUnavailable)
	}
	params, err := compileParameters(cfg)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(s.keyBytes)
	sk, err := ckks.ReadSecretKey(r, params)
	if err != nil {
		return nil, fmt.Errorf("fast: snapshot secret key: %w", err)
	}
	pk, err := ckks.ReadPublicKey(r, params)
	if err != nil {
		return nil, fmt.Errorf("fast: snapshot public key: %w", err)
	}
	keys, err := ckks.ReadEvaluationKeySet(r, params)
	if err != nil {
		return nil, fmt.Errorf("fast: snapshot evaluation keys: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("fast: %d trailing bytes after snapshot key material: %w", r.Len(), ErrCorruptSnapshot)
	}
	encSeed := params.Seed() + 0x5eed + int64(s.Meta.Restores)*0x9e3779b9
	return assembleContext(cfg, settings, params, sk, pk, keys, encSeed)
}

// ReadSessionSnapshot reads, verifies and restores a session snapshot in one
// step, returning the rebuilt context and the stored metadata. Callers that
// need to bump Meta.Restores before expansion (every restoring daemon
// should) use DecodeSessionSnapshot + Restore instead.
func ReadSessionSnapshot(r io.Reader, opts ...Option) (*Context, SessionMeta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, SessionMeta{}, fmt.Errorf("fast: read snapshot: %w", err)
	}
	snap, err := DecodeSessionSnapshot(data)
	if err != nil {
		return nil, SessionMeta{}, err
	}
	ctx, err := snap.Restore(opts...)
	if err != nil {
		return nil, SessionMeta{}, err
	}
	return ctx, snap.Meta, nil
}
