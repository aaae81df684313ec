package serve

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"

	"repro/internal/perfmodel"
)

// This file writes /v1/predict replies without reflection: handlePredict
// appends each prediction to one buffer as soon as it is computed. The
// bytes are the ones encoding/json writes for predictionJSON(p), which
// stays in api.go as the reference FuzzPredictionEncoding compares
// against.

// rowBytes is a generous size for one encoded prediction (a Tier 1
// generalized row is about 340 bytes), used to size a reply's buffer up
// front.
const rowBytes = 384

// appendPrediction appends p as a JSON object: api.go's PredictionJSON
// field names in declaration order, under the same omitempty rules. A
// non-finite float is an error, as it is for encoding/json.
//
//lint:hot
func appendPrediction(b []byte, p *perfmodel.Prediction) ([]byte, error) {
	for _, f := range [...]float64{p.MFLUPS, p.SecondsPerStep, p.MemS, p.IntraS, p.InterS, p.CPUGPUs,
		p.CommBandwidthS, p.CommLatencyS, p.Confidence.LoMFLUPS, p.Confidence.HiMFLUPS} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, errNonFinite
		}
	}
	b = append(b, `{"system":`...)
	b = appendString(b, p.System)
	b = append(b, `,"model":`...)
	b = appendString(b, p.Model)
	b = append(b, `,"ranks":`...)
	b = strconv.AppendInt(b, int64(p.Ranks), 10)
	b = append(b, `,"mflups":`...)
	b = appendFloat(b, p.MFLUPS)
	b = append(b, `,"seconds_per_step":`...)
	b = appendFloat(b, p.SecondsPerStep)
	b = appendNonZero(b, `,"mem_s":`, p.MemS)
	b = appendNonZero(b, `,"intra_s":`, p.IntraS)
	b = appendNonZero(b, `,"inter_s":`, p.InterS)
	b = appendNonZero(b, `,"cpu_gpu_s":`, p.CPUGPUs)
	b = appendNonZero(b, `,"comm_bandwidth_s":`, p.CommBandwidthS)
	b = appendNonZero(b, `,"comm_latency_s":`, p.CommLatencyS)
	if p.Tier != "" {
		b = append(b, `,"tier":`...)
		b = appendString(b, p.Tier)
	}
	if p.Confidence != (perfmodel.Band{}) {
		b = append(b, `,"confidence":{"lo_mflups":`...)
		b = appendFloat(b, p.Confidence.LoMFLUPS)
		b = append(b, `,"hi_mflups":`...)
		b = appendFloat(b, p.Confidence.HiMFLUPS)
		b = append(b, '}')
	}
	if p.Extrapolated {
		b = append(b, `,"extrapolated":true`...)
	}
	return append(b, '}'), nil
}

// errNonFinite is appendPrediction's error for a NaN or ±Inf field; the
// handler answers it with a 500.
var errNonFinite = errors.New("a prediction holds NaN or ±Inf, which JSON cannot carry")

// appendNonZero appends key and f unless f is zero: omitempty.
func appendNonZero(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	return appendFloat(append(b, key...), f)
}

// appendFloat appends a finite f the way encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded.
//
//lint:hot
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s quoted. A string of printable ASCII that
// encoding/json leaves as it is, which every catalog name and tier is,
// is copied; any other goes through json.Marshal, so escaping stays
// exactly encoding/json's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
