package capability

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestValueJSONRoundTrip(t *testing.T) {
	for _, v := range []Value{Num(3.5), Text("Virtex-5"), Bool(true), Bool(false), Num(0), Text("")} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != v {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestValueJSONWireFormat(t *testing.T) {
	data, _ := json.Marshal(Num(3))
	if string(data) != `{"num":3}` {
		t.Errorf("wire = %s", data)
	}
	data, _ = json.Marshal(Text("x"))
	if string(data) != `{"text":"x"}` {
		t.Errorf("wire = %s", data)
	}
}

func TestValueJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{}`,
		`{"num":1,"text":"x"}`,
		`[1]`,
	}
	for _, c := range cases {
		var v Value
		if err := json.Unmarshal([]byte(c), &v); err == nil {
			t.Errorf("accepted %s", c)
		}
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	s := sampleFPGA().Set()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(s) {
		t.Fatalf("lengths differ: %d vs %d", len(back), len(s))
	}
	for k, v := range s {
		if back[k] != v {
			t.Errorf("key %s: %v vs %v", k, back[k], v)
		}
	}
}

func TestRequirementsJSONRoundTrip(t *testing.T) {
	reqs := append(Requirements{}.
		Eq(ParamFPGAFamily, Text("Virtex-5")).
		Min(ParamFPGASlices, 18707),
		Requirement{ParamSoftFUTypes, OpHasAll, Text("ALU,MUL")})
	data, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var back Requirements
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != reqs.String() {
		t.Errorf("round trip: %s vs %s", back, reqs)
	}
}

func TestRequirementJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"op":">=","value":{"num":1}}`,            // no param
		`{"param":"x","op":"~","value":{"num":1}}`, // bad op
		`{"param":"x","op":">=","value":{}}`,       // bad value
		`"nope"`,                                   // not an object
	}
	for _, c := range cases {
		var r Requirement
		if err := json.Unmarshal([]byte(c), &r); err == nil {
			t.Errorf("accepted %s", c)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for op := range opNames {
		back, err := ParseOp(op.String())
		if err != nil || back != op {
			t.Errorf("op %v round trip failed: %v", op, err)
		}
	}
	if _, err := ParseOp("<=>"); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestValueJSONPropertyRoundTrip(t *testing.T) {
	f := func(n float64, s string, b bool, which uint8) bool {
		var v Value
		switch which % 3 {
		case 0:
			v = Num(n)
		case 1:
			v = Text(s)
		default:
			v = Bool(b)
		}
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back == v
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
