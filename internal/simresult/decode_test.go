package simresult

import (
	"encoding/json"
	"reflect"
	"testing"
)

// canonicalDocs are documents in the generated encoder's exact shape, one
// per section the encoder can emit. They double as fuzz seeds.
var canonicalDocs = []string{
	// The no-coverage shape a batch lane emits.
	`{"model":"CSEV","engine":"AccMoS","steps":1500,"execNanos":812345,"outputHash":18446744073709551615,"diagTotal":0}`,
	// The coverage-carrying shape of a single run ("AA==" is one zero
	// byte, "AAE=" two bytes with the second bit set).
	`{"model":"SWEEP","engine":"AccMoS","steps":400,"execNanos":99,"outputHash":7,` +
		`"coverage":{"actor":"AAE=","cond":"AA==","dec":"AQ==","mcdc":"AA=="},"diagTotal":0}`,
	// Trailing newline, as read off the wire.
	`{"model":"X","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":3}` + "\n",
	// Diagnosis counts with first-detect steps, and verbatim records
	// whose details need escaping.
	`{"model":"CSEVINJ","engine":"AccMoS","steps":3000,"execNanos":5,"outputHash":42,"diagTotal":3,` +
		`"diagCounts":{"M_ADD|WrapOnOverflow":2,"M_DIV|DivisionByZero":1},` +
		`"firstDetect":{"M_ADD|WrapOnOverflow":2147,"M_DIV|DivisionByZero":0},` +
		`"diags":[{"step":0,"actor":"M_DIV","kind":"DivisionByZero"},` +
		`{"step":2147,"actor":"M_ADD","kind":"WrapOnOverflow","detail":"q\"uote\\back\tslash\n\u001f"},` +
		`{"step":2148,"actor":"M_ADD","kind":"WrapOnOverflow","detail":"café é \/"}]}`,
	// Monitor samples, including an empty and a null sample list.
	`{"model":"D","engine":"AccMoS","steps":2,"execNanos":1,"outputHash":9,"diagTotal":0,` +
		`"monitor":{"Acc":[{"step":0,"value":"1.5"},{"step":1,"value":"[1 2]"}],"Empty":[],"Nil":null},` +
		`"monitorHits":{"Acc":2,"Empty":3,"Nil":4}}`,
	// A model name carrying a quote and a backslash.
	`{"model":"a\"b\\c","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0}`,
	// Every optional section at once, empty collections included.
	`{"model":"ALL","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":1,` +
		`"coverage":{"actor":"","cond":"AA==","dec":"AA==","mcdc":"AA=="},"diagTotal":0,` +
		`"diagCounts":{},"firstDetect":{},"diags":[],"monitor":{},"monitorHits":{}}`,
}

// TestDecodeGeneratedMatchesJSON: every document in the generated
// encoder's shape decodes exactly as encoding/json decodes it.
func TestDecodeGeneratedMatchesJSON(t *testing.T) {
	for _, doc := range canonicalDocs {
		var got, want Results
		if !DecodeGenerated([]byte(doc), &got) {
			t.Errorf("decoder rejected a canonical document: %s", doc)
			continue
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("reference decode failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decode diverges from encoding/json:\n got  %+v\n want %+v\n doc %s", got, want, doc)
		}
	}
}

// TestDecodeGeneratedFallsBack: anything off the encoder's grammar is
// rejected WITHOUT modifying the destination.
func TestDecodeGeneratedFallsBack(t *testing.T) {
	docs := []struct {
		name string
		doc  string
	}{
		{"different field order", `{"engine":"AccMoS","model":"X","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0}`},
		{"invalid escape in model name", `{"model":"a\qb","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0}`},
		{"diag records section", `{"model":"X","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":2,"diagCounts":{"overflow":2}}`},
		{"monitor section", `{"model":"X","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0,"monitorHits":{"Acc":1}}`},
		{"negative number", `{"model":"X","engine":"AccMoS","steps":-1,"execNanos":0,"outputHash":0,"diagTotal":0}`},
		{"bad base64 bitmap", `{"model":"X","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"coverage":{"actor":"!!","cond":"AA==","dec":"AA==","mcdc":"AA=="},"diagTotal":0}`},
		{"truncated document", `{"model":"X","engine":"AccMoS","steps":1,"execNanos":0`},
		{"trailing garbage", `{"model":"X","engine":"AccMoS","steps":1,"execNanos":0,"outputHash":0,"diagTotal":0}{}`},
		{"not json at all", `boom: stack trace`},
	}
	for _, tc := range docs {
		sentinel := Results{Model: "UNTOUCHED", Steps: 42}
		got := sentinel
		if DecodeGenerated([]byte(tc.doc), &got) {
			t.Errorf("%s: decoder accepted a non-canonical document", tc.name)
			continue
		}
		if !reflect.DeepEqual(got, sentinel) {
			t.Errorf("%s: a rejected decode modified the destination: %+v", tc.name, got)
		}
	}
}

// TestDecodeReportsOffset: a rejection names where decoding stopped.
func TestDecodeReportsOffset(t *testing.T) {
	var r Results
	err := Decode([]byte(`{"model":"X","engine":"AccMoS","steps":01}`), &r)
	if err == nil || err.Error() != "decoding results at byte offset 39: not a generated result document" {
		t.Errorf("err = %v", err)
	}
}

// FuzzDecodeGenerated: the decoder never panics, and whenever it accepts
// a document, encoding/json accepts it too and decodes the same Results.
func FuzzDecodeGenerated(f *testing.F) {
	for _, doc := range canonicalDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var got Results
		if !DecodeGenerated(doc, &got) {
			return
		}
		var want Results
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatalf("decoder accepted a document encoding/json rejects (%v): %q", err, doc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode diverges from encoding/json:\n got  %+v\n want %+v\n doc %q", got, want, doc)
		}
	})
}
