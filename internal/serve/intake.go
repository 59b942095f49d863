package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"unicode/utf8"
)

// Request intake: read a body whole, then decode its envelope. Every
// request is read, memo hits included, and every request the memo
// misses is decoded, so neither step may cost much more than the body.

// bodyPrealloc bounds the buffer a declared Content-Length reserves
// once the first 512 bytes of the body have arrived: a client that
// declares MaxBody and stalls pins at most this much, not MaxBody. It is
// four times the largest body servebench sends (64 KB inline netlists).
const bodyPrealloc = 256 << 10

// readBody reads r's body whole, refusing it with *http.MaxBytesError
// past limit bytes. It starts with 512 bytes, as io.ReadAll does, so a
// client that declares a long body and sends nothing pins no more than
// it did there. When those fill, the buffer jumps to the declared
// length, up to bodyPrealloc, or else doubles, never past the declared
// length or limit plus one byte for the read that reports EOF: the
// MaxBytesReader refuses a body before it hands over byte limit+1.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	room := limit
	if r.ContentLength >= 0 {
		room = min(room, r.ContentLength)
	}
	buf := make([]byte, 0, 512)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			// An unknown length is -1, so such a body doubles. next is
			// at most twice a buffer that exists, so room+1, taken only
			// when room <= next, cannot overflow, even for a declared
			// length of 1<<63 - 1.
			next := max(2*int64(cap(buf)), min(r.ContentLength, bodyPrealloc))
			if next >= room {
				next = room + 1
			}
			buf = append(make([]byte, 0, next), buf...)
		}
	}
}

// decodeEnvelope decodes a request body. A body of the shape
// json.Marshal gives an envelope whose strings hold no '<', '>', '&',
// U+2028 or U+2029, which it writes as \u escapes, decodes in one scan
// (scanEnvelope); any other goes to json.Unmarshal. The scan accepts
// only bodies that json.Unmarshal decodes to the same value, so either
// way a body yields the same request, the same error text and the same
// cache key (FuzzEnvelopeMatchesJSON).
func decodeEnvelope(body []byte) (netlistRequest, error) {
	if req, ok := scanEnvelope(body); ok {
		return req, nil
	}
	var req netlistRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// The envelope's fields, as scanEnvelope numbers them.
const (
	fieldBench = iota
	fieldGenerate
	fieldOptions
	fieldMode
)

// scanEnvelope decodes body in one scan if it is a JSON object whose
// keys are the four envelope field names, spelled as the struct tags
// spell them and each present at most once; whose "bench", "generate"
// and "mode" values are strings in valid UTF-8 that use only the
// escapes \" \\ \/ \b \f \n \r \t; whose "options" value is an object,
// kept byte for byte as json.RawMessage keeps it; and after which only
// whitespace follows. It reports false for every other body, invalid
// ones included.
func scanEnvelope(body []byte) (req netlistRequest, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return req, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return req, skipSpace(body, i+1) == len(body)
	}
	var seen [4]bool
	for {
		// A key is the bytes up to the next quote. One that holds an
		// escape, or any other spelling but the tag's, matches no field
		// and is left to json.Unmarshal, as is a repeated one.
		if i == len(body) || body[i] != '"' {
			return req, false
		}
		n := bytes.IndexByte(body[i+1:], '"')
		if n < 0 {
			return req, false
		}
		field := -1
		switch string(body[i+1 : i+1+n]) {
		case "bench":
			field = fieldBench
		case "generate":
			field = fieldGenerate
		case "options":
			field = fieldOptions
		case "mode":
			field = fieldMode
		}
		if field < 0 || seen[field] {
			return req, false
		}
		seen[field] = true
		i = skipSpace(body, i+n+2)
		if i == len(body) || body[i] != ':' {
			return req, false
		}
		i = skipSpace(body, i+1)
		if field == fieldOptions {
			end := objectEnd(body, i)
			if end < 0 || !json.Valid(body[i:end]) {
				return req, false
			}
			req.Options = body[i:end:end]
			i = end
		} else {
			s, next, ok := scanString(body, i)
			if !ok {
				return req, false
			}
			switch field {
			case fieldBench:
				req.Bench = s
			case fieldGenerate:
				req.Generate = s
			default:
				req.Mode = s
			}
			i = next
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return req, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return req, skipSpace(body, i+1) == len(body)
		default:
			return req, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// unescaped maps the byte after a backslash to the byte it stands for,
// for the escapes scanString accepts; 0 marks every other byte.
var unescaped = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// plain marks the bytes a JSON string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString decodes the JSON string that starts at body[i], returning
// it and the index past its closing quote. It reports false for a
// string json.Unmarshal would decode differently from its bytes or
// refuse: one with a \u escape, a raw control byte or invalid UTF-8, or
// one with no closing quote. A string with no escape is copied once at
// its end; one with escapes is built as they are met, in a buffer sized
// to the rest of the body, an upper bound on what it holds.
func scanString(body []byte, i int) (s string, next int, ok bool) {
	if i == len(body) || body[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	ascii := true
	var b strings.Builder
	run := start // the first byte not yet copied into b
	for j := start; ; {
		for j < len(body) && plain[body[j]] {
			j++
		}
		if j == len(body) {
			return "", 0, false
		}
		switch c := body[j]; {
		case c == '"':
			if !ascii && !utf8.Valid(body[start:j]) {
				return "", 0, false
			}
			if run == start {
				return string(body[start:j]), j + 1, true
			}
			b.Write(body[run:j])
			return b.String(), j + 1, true
		case c == '\\':
			if j+1 == len(body) || unescaped[body[j+1]] == 0 {
				return "", 0, false
			}
			if run == start {
				b.Grow(len(body) - start)
			}
			b.Write(body[run:j])
			b.WriteByte(unescaped[body[j+1]])
			j += 2
			run = j
		case c >= utf8.RuneSelf:
			ascii = false
			j++
		default:
			return "", 0, false
		}
	}
}

// objectEnd returns the index past the JSON object that starts at
// body[i], matching brackets outside strings, or -1 when body[i] is
// not '{' or the brackets never close. It does not check the syntax in
// between; json.Valid does.
func objectEnd(body []byte, i int) int {
	if i == len(body) || body[i] != '{' {
		return -1
	}
	depth := 0
	for ; i < len(body); i++ {
		switch body[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		case '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		}
	}
	return -1
}
