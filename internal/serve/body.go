package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// The /v1/plan and /v1/health bodies carry one to two floats per
// station, so at fleet scale encoding them is most of what a re-plan
// costs the daemon. They are appended by hand instead of through
// reflection, byte for byte as encoding/json writes the same value (the
// tests hold encoding/json as the oracle), and each distinct float is
// formatted once per body. A fleet's stations fall into a few classes
// whose members share their rate and utilization, so a plan's 20,000
// floats at 10,000 stations are about a hundred distinct values. The
// health body's detector readings repeat only while they read zero;
// under traffic nearly all of them differ, and the memo's misses then
// cost no measurable time.
//
// encoding/json's own extension point, json.Marshaler, does not serve
// here: the encoder re-scans every marshaler's output to compact it,
// which costs about as much as the formatting it would save.
//
// The appenders take and return the body as a local slice, in the
// style of strconv.AppendFloat: storing it back into the heap-allocated
// encoder after every append would cost a GC write barrier each time.

// bodyEncoder is the state of one body besides its bytes.
type bodyEncoder struct {
	// memo maps a float's bits to its encoding. It is set-associative:
	// a float's hash picks a set of memoWays entries, and an entry is
	// taken over only when all of its set are filled. A plan's
	// hundred-odd distinct floats spread over memoSets sets then fill
	// none, so each is formatted once, where in a direct-mapped memo
	// two colliding values evict each other again and again. fill
	// holds each set's filled ways, the only state a new body clears.
	memo [memoSets]memoSet
	fill [memoSets]memoFill
	// err is the first value that could not be encoded.
	err error
	// buf keeps the body's storage for the next body.
	buf []byte
}

const (
	memoSetBits = 7
	memoSets    = 1 << memoSetBits
	memoWays    = 8
	// memoText bounds an entry's encoding. encoding/json writes a
	// finite float in at most 25 bytes (a sign, "0.", five zeros and
	// 17 digits), so every float fits.
	memoText = 32
)

// memoSet is one set of the memo: the floats' bits and their
// encodings, n bytes of text each.
type memoSet struct {
	bits [memoWays]uint64
	n    [memoWays]uint8
	text [memoWays][memoText]byte
}

// memoFill counts a set's ways filled from way 0 up; next is the way a
// new float takes over once all are filled.
type memoFill struct{ used, next uint8 }

// bodyPool recycles encoders, as encoding/json recycles its encode
// states: a 10k-station plan body is about 400 KB.
var bodyPool = sync.Pool{New: func() any { return new(bodyEncoder) }}

// writeBody answers status with the body fill appends, in one Write and
// with the trailing newline json.Encoder adds. If a value cannot be
// encoded, it answers 500 with the error instead: the header is written
// only once the body is complete.
func writeBody(w http.ResponseWriter, status int, fill func([]byte, *bodyEncoder) []byte) {
	enc := bodyPool.Get().(*bodyEncoder)
	defer bodyPool.Put(enc)
	clear(enc.fill[:])
	enc.err = nil
	b := append(fill(enc.buf[:0], enc), '\n')
	enc.buf = b
	if enc.err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", enc.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

func (enc *bodyEncoder) fail(err error) {
	if enc.err == nil {
		enc.err = err
	}
}

// float appends f, copying its earlier encoding when the memo has one.
// NaN and ±Inf have no JSON form and fail the body, as they fail
// encoding/json.
func (enc *bodyEncoder) float(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	s := memoSetOf(bits)
	set, fill := &enc.memo[s], &enc.fill[s]
	for w := range fill.used {
		if set.bits[w] == bits {
			return appendText(b, &set.text[w], set.n[w])
		}
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		enc.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return b
	}
	off := len(b)
	b = appendFloat(b, f)
	w := fill.used
	if w < memoWays {
		fill.used++
	} else {
		w = fill.next
		fill.next = (fill.next + 1) % memoWays
	}
	set.bits[w], set.n[w] = bits, uint8(copy(set.text[w][:], b[off:]))
	return b
}

// appendText appends the first n bytes of t. With room for all of t it
// stores t whole and keeps n bytes of it: two 16-byte moves, which the
// compiler emits inline, where a copy of n bytes calls memmove.
func appendText(b []byte, t *[memoText]byte, n uint8) []byte {
	l := len(b)
	if cap(b)-l < memoText {
		return append(b, t[:n]...)
	}
	b = b[:l+memoText]
	*(*[16]byte)(b[l:]) = *(*[16]byte)(t[:16])
	*(*[16]byte)(b[l+16:]) = *(*[16]byte)(t[16:])
	return b[:l+int(n)]
}

// memoSetOf returns the memo set of a float's bits.
func memoSetOf(bits uint64) uint64 { return bits * 0x9e3779b97f4a7c15 >> (64 - memoSetBits) }

func (enc *bodyEncoder) floats(b []byte, fs []float64) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = enc.float(b, f)
	}
	return append(b, ']')
}

func (enc *bodyEncoder) timestamp(b []byte, t time.Time) []byte {
	text, err := t.MarshalJSON()
	if err != nil {
		enc.fail(err)
		return b
	}
	return append(b, text...)
}

// appendFloat formats a finite f as encoding/json does: the shortest
// decimal that round-trips, in 'e' form below 1e-6 and from 1e21 up
// with a one-digit negative exponent left unpadded, else in 'f' form.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendBools(b []byte, vs []bool) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, v)
	}
	return append(b, ']')
}

// appendString appends s quoted. Printable ASCII that encoding/json
// leaves alone is copied; any other string is quoted by encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSON appends the plan as encoding/json marshals it.
func (p *Plan) appendJSON(b []byte, enc *bodyEncoder) []byte {
	// Reserve about the body's size, some 41 bytes a station, so that a
	// buffer the pool lost to a GC is allocated once rather than grown
	// through append's 1.25× steps, which allocate several times over.
	b = slices.Grow(b, 256+48*len(p.Rates))
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, p.Version, 10)
	b = append(b, `,"lambda":`...)
	b = enc.float(b, p.Lambda)
	b = append(b, `,"rates":`...)
	b = enc.floats(b, p.Rates)
	b = append(b, `,"phi":`...)
	b = enc.float(b, p.Phi)
	b = append(b, `,"avg_response_time":`...)
	b = enc.float(b, p.AvgResponseTime)
	b = append(b, `,"utilizations":`...)
	b = enc.floats(b, p.Utilizations)
	if len(p.Up) > 0 {
		b = append(b, `,"up":`...)
		b = appendBools(b, p.Up)
	}
	b = append(b, `,"survivors":`...)
	b = strconv.AppendInt(b, int64(p.Survivors), 10)
	b = append(b, `,"capacity":`...)
	b = enc.float(b, p.Capacity)
	b = append(b, `,"admitted":`...)
	b = enc.float(b, p.Admitted)
	b = append(b, `,"shed":`...)
	b = enc.float(b, p.Shed)
	if len(p.Ramp) > 0 {
		b = append(b, `,"ramp":`...)
		b = enc.floats(b, p.Ramp)
	}
	b = append(b, `,"solved_at":`...)
	b = enc.timestamp(b, p.SolvedAt)
	if p.Policy != "" {
		b = append(b, `,"policy":`...)
		b = appendString(b, p.Policy)
	}
	return append(b, '}')
}

// appendJSON appends the health view as encoding/json marshals it. The
// daemon's handlers stream the same body from live state
// (Server.appendHealth); this form serves the tests' oracle.
func (hs *HealthState) appendJSON(b []byte, enc *bodyEncoder) []byte {
	b = appendHealthHead(b, enc, hs.Up, hs.Estimate, hs.Warm, len(hs.Stations))
	if len(hs.Stations) > 0 {
		b = append(b, `,"stations":[`...)
		for i := range hs.Stations {
			if i > 0 {
				b = append(b, ',')
			}
			b = hs.Stations[i].appendJSON(b, enc)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendHealthHead opens a health body with its fields before the
// stations' blocks, reserving room for n of them.
func appendHealthHead(b []byte, enc *bodyEncoder, up []bool, estimate float64, warm bool, n int) []byte {
	// As in Plan.appendJSON; a station's entry is some 118 bytes.
	b = slices.Grow(b, 64+128*n)
	b = append(b, `{"up":`...)
	b = appendBools(b, up)
	b = append(b, `,"estimate":`...)
	b = enc.float(b, estimate)
	b = append(b, `,"warm":`...)
	return strconv.AppendBool(b, warm)
}

func (sh *StationHealth) appendJSON(b []byte, enc *bodyEncoder) []byte {
	b = append(b, `{"station":`...)
	b = strconv.AppendInt(b, int64(sh.Station), 10)
	if sh.Name != "" {
		b = append(b, `,"name":`...)
		b = appendString(b, sh.Name)
	}
	b = append(b, `,"up":`...)
	b = strconv.AppendBool(b, sh.Up)
	if sh.OperatorPinned {
		b = append(b, `,"operator_pinned":true`...)
	}
	b = append(b, `,"breaker":`...)
	b = appendString(b, sh.Breaker)
	if sh.Trips != 0 {
		b = append(b, `,"trips":`...)
		b = strconv.AppendInt(b, sh.Trips, 10)
	}
	b = append(b, `,"error_rate":`...)
	b = enc.float(b, sh.ErrorRate)
	b = append(b, `,"suspicion":`...)
	b = enc.float(b, sh.Suspicion)
	b = append(b, `,"successes":`...)
	b = strconv.AppendInt(b, sh.Successes, 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, sh.Errors, 10)
	b = append(b, `,"timeouts":`...)
	b = strconv.AppendInt(b, sh.Timeouts, 10)
	if sh.RampFactor != 0 { //bladelint:allow floateq -- omitempty: encoding/json omits a float that compares equal to zero, -0 included
		b = append(b, `,"ramp_factor":`...)
		b = enc.float(b, sh.RampFactor)
	}
	if sh.OpenRemainingSeconds != 0 { //bladelint:allow floateq -- omitempty: encoding/json omits a float that compares equal to zero, -0 included
		b = append(b, `,"open_remaining_seconds":`...)
		b = enc.float(b, sh.OpenRemainingSeconds)
	}
	return append(b, '}')
}
