package replicate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// handlerTransport answers every request in process, by running h
// against an httptest recorder.
type handlerTransport struct{ h http.HandlerFunc }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h(rec, r)
	return rec.Result(), nil
}

// FuzzPullHeaders drives one pull cycle against a writer whose /model
// answers the fuzzed status, X-Model-Version and X-Model-Sha256 headers
// and body, to a replica serving version 5. By the body's length mod 3
// the replica first holds no announcement, one that carries the
// advertised hash, or one that carries a hash the body does not have.
// Properties:
//   - Sync never panics;
//   - Swap is called exactly when the status is 200, the version parses
//     above the served one, the advertised hash is the body's SHA-256, and
//     no pending announcement of that version disagrees with it;
//   - the served version never goes backwards, and a second Sync against
//     the same writer swaps nothing;
//   - no *.part file is left in the spool;
//   - Status.Failures rises by one exactly when Sync returns an error.
func FuzzPullHeaders(f *testing.F) {
	hexSum := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	// body's length is a multiple of 3: no announcement. One byte more
	// brings an announcement that agrees, two one that disagrees.
	body := []byte("model bytes!")
	good := hexSum(body)
	agreed, disputed := append(body[:len(body):len(body)], 'x'), append(body[:len(body):len(body)], 'x', 'y')
	for _, seed := range []struct {
		version, sum string
		body         []byte
		status       int
	}{
		{"6", good, body, 200},
		{"6", hexSum(agreed), agreed, 200},
		{"6", hexSum(disputed), disputed, 200},
		{"6", hexSum(nil), nil, 200},              // an empty model
		{"5", good, body, 200},                    // not newer
		{"4", good, body, 200},                    // older
		{"7", good[:63] + "0", body, 200},         // the wrong hash
		{"7", "", body, 200},                      // no hash
		{"", good, body, 200},                     // no version
		{"0", good, body, 200},                    // version zero
		{"-1", good, body, 200},                   // negative
		{"+6", good, body, 200},                   // an explicit sign
		{" 7", good, body, 200},                   // padded
		{"017", good, body, 200},                  // a leading zero
		{"1e3", good, body, 200},                  // not an integer
		{"６", good, body, 200},                    // a full-width digit
		{"6\r\nX-Injected: 1", good, body, 200},   // header junk
		{"18446744073709551615", good, body, 200}, // the largest version
		{"18446744073709551616", good, body, 200}, // overflows uint64
		{"6", strings.ToUpper(good), body, 200},   // the right hash, upper case
		{"6", good + good, body, 200},             // a hash too long
		{"6", "not hex", []byte("\x00\xff\n\r"), 200},
		{"10", hexSum(make([]byte, 1<<16)), make([]byte, 1<<16), 200},
		{"8", good, body, 404},
		{"8", good, body, 503},
		{"8", good, body, 201}, // created is not OK
		{"8", good, body, 599}, // the highest status
		{"8", good, body, -1},  // statuses map into 200…599
		{"8", good, body, 1 << 30},
	} {
		f.Add(seed.version, seed.sum, seed.body, seed.status)
	}
	f.Fuzz(func(t *testing.T, version, sum string, body []byte, status int) {
		const served = 5
		code := 200 + int(uint(status)%400)
		bodySum := sha256.Sum256(body)
		bodyHex := hex.EncodeToString(bodySum[:])
		writer := func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(VersionHeader, version)
			w.Header().Set(SumHeader, sum)
			w.WriteHeader(code)
			_, _ = w.Write(body)
		}
		spool := t.TempDir()
		var swaps []uint64
		serving := uint64(served)
		p := &Puller{
			Writer:  "http://writer.invalid",
			Spool:   spool,
			Current: func() uint64 { return serving },
			Swap: func(path string, v uint64) error {
				if want := filepath.Join(spool, "model-v"+strconv.FormatUint(v, 10)+".clsi"); path != want {
					t.Errorf("swapped %q, want %q", path, want)
				}
				swaps = append(swaps, v)
				serving = v
				return nil
			},
			Client: &http.Client{Transport: handlerTransport{writer}},
		}
		parsed, parseErr := strconv.ParseUint(version, 10, 64)
		announced := false
		switch len(body) % 3 {
		case 1:
			p.Notify(Announcement{Version: parsed, Fingerprint: sum})
		case 2:
			bad := []byte(bodyHex)
			bad[0] ^= 1
			p.Notify(Announcement{Version: parsed, Fingerprint: string(bad)})
			announced = true
		}
		wantSwap := code == http.StatusOK && parseErr == nil && parsed > served &&
			sum == bodyHex && !(announced && parsed != 0)

		for round := range 2 {
			before, was := p.Status().Failures, serving
			err := p.Sync(context.Background())
			if after := p.Status().Failures; (err != nil) != (after == before+1) || after > before+1 {
				t.Fatalf("round %d: Sync returned %v but Failures went %d → %d", round, err, before, after)
			}
			if parts, _ := filepath.Glob(filepath.Join(spool, "*.part")); len(parts) > 0 {
				t.Fatalf("round %d: the spool kept %v", round, parts)
			}
			if serving < was {
				t.Fatalf("round %d: the served version went back from %d to %d", round, was, serving)
			}
		}
		switch {
		case wantSwap && (len(swaps) != 1 || swaps[0] != parsed):
			t.Fatalf("status %d, version %q, hash %q of a body hashing to %s: swaps %v, want exactly [%d]",
				code, version, sum, bodyHex, swaps, parsed)
		case !wantSwap && len(swaps) > 0:
			t.Fatalf("status %d, version %q, hash %q of a body hashing to %s: swapped %v",
				code, version, sum, bodyHex, swaps)
		}
	})
}
