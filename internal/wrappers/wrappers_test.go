package wrappers

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/tuple"
)

func sensorSchema() *tuple.Schema {
	return tuple.NewSchema("sensors",
		tuple.Field{Name: "id", Kind: tuple.IntKind},
		tuple.Field{Name: "temp", Kind: tuple.FloatKind},
		tuple.Field{Name: "loc", Kind: tuple.StringKind},
	)
}

func TestCSVScannerBasic(t *testing.T) {
	in := "1,20.5,lab\n2,30.25,roof\n"
	got, err := ReadAllCSV(strings.NewReader(in), sensorSchema(), CSVOptions{TsColumn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d tuples", len(got))
	}
	if got[0].Vals[0].AsInt() != 1 || got[0].Vals[1].AsFloat() != 20.5 || got[0].Vals[2].AsString() != "lab" {
		t.Errorf("row 0 = %v", got[0])
	}
}

func TestCSVScannerTsColumnAndHeader(t *testing.T) {
	in := "ts,id,temp,loc\n1000,1,20.5,lab\n2000,2,30.0,roof\n"
	got, err := ReadAllCSV(strings.NewReader(in), sensorSchema(), CSVOptions{TsColumn: 0, Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Ts != 1000 || got[1].Ts != 2000 {
		t.Fatalf("tuples = %v", got)
	}
	if got[0].Vals[0].AsInt() != 1 {
		t.Errorf("row 0 = %v", got[0])
	}
}

func TestCSVScannerErrors(t *testing.T) {
	cases := []string{
		"1,2.0\n",     // arity
		"x,2.0,lab\n", // bad int
		"1,y,lab\n",   // bad float
	}
	for _, in := range cases {
		if _, err := ReadAllCSV(strings.NewReader(in), sensorSchema(), CSVOptions{TsColumn: -1}); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
	if _, err := ReadAllCSV(strings.NewReader("bad,1,2.0,lab\n"), sensorSchema(), CSVOptions{TsColumn: 0}); err == nil {
		t.Error("bad ts should fail")
	}
}

func TestCSVWriterRoundTrip(t *testing.T) {
	sch := sensorSchema()
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, sch, CSVOptions{TsColumn: 0, Header: true})
	in := []*tuple.Tuple{
		tuple.NewData(1000, tuple.Int(1), tuple.Float(20.5), tuple.String_("lab")),
		tuple.NewData(2000, tuple.Int(2), tuple.Float(31), tuple.String_("roof")),
	}
	for _, tp := range in {
		if err := w.Write(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(tuple.NewPunct(99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "ts_us,id,temp,loc\n") {
		t.Fatalf("header missing:\n%s", buf.String())
	}
	got, err := ReadAllCSV(bytes.NewReader(buf.Bytes()), sch, CSVOptions{TsColumn: 0, Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost tuples: %v", got)
	}
	for i := range in {
		if got[i].Ts != in[i].Ts || !got[i].Vals[1].Equal(in[i].Vals[1]) {
			t.Errorf("row %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestJSONScanner(t *testing.T) {
	in := `{"ts_us":1000,"id":1,"temp":20.5,"loc":"lab"}
{"id":2,"temp":30.0}

{"ts_us":3000,"id":3,"temp":1.0,"loc":"roof"}
`
	sc := NewJSONScanner(strings.NewReader(in), sensorSchema())
	var got []*tuple.Tuple
	for {
		tp, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tp)
	}
	if len(got) != 3 {
		t.Fatalf("got %d tuples", len(got))
	}
	if got[0].Ts != 1000 || got[0].Vals[2].AsString() != "lab" {
		t.Errorf("row 0 = %v", got[0])
	}
	// Missing fields stay null.
	if !got[1].Vals[2].IsNull() || got[1].Ts != 0 {
		t.Errorf("row 1 = %v", got[1])
	}
}

func TestJSONScannerErrors(t *testing.T) {
	sc := NewJSONScanner(strings.NewReader("{bad json}\n"), sensorSchema())
	if _, err := sc.Next(); err == nil {
		t.Error("bad JSON accepted")
	}
	sc = NewJSONScanner(strings.NewReader(`{"id":"nope"}`+"\n"), sensorSchema())
	if _, err := sc.Next(); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	sch := sensorSchema()
	var buf bytes.Buffer
	orig := tuple.NewData(1234, tuple.Int(7), tuple.Float(2.5), tuple.String_("x"))
	if err := WriteJSON(&buf, sch, orig); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&buf, sch, tuple.NewPunct(1)); err != nil {
		t.Fatal(err)
	}
	sc := NewJSONScanner(&buf, sch)
	got, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Ts != 1234 || got.Vals[0].AsInt() != 7 || got.Vals[2].AsString() != "x" {
		t.Errorf("round trip = %v", got)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Error("punctuation leaked into JSON output")
	}
}

func TestCSVWriterNoTsColumn(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, sensorSchema(), CSVOptions{TsColumn: -1, Header: true})
	if err := w.Write(tuple.NewData(5, tuple.Int(1), tuple.Float(2), tuple.String_("a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "id,temp,loc\n1,2,a\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}

func TestJSONAllKindsRoundTrip(t *testing.T) {
	sch := tuple.NewSchema("k",
		tuple.Field{Name: "i", Kind: tuple.IntKind},
		tuple.Field{Name: "f", Kind: tuple.FloatKind},
		tuple.Field{Name: "s", Kind: tuple.StringKind},
		tuple.Field{Name: "b", Kind: tuple.BoolKind},
		tuple.Field{Name: "t", Kind: tuple.TimeKind},
	)
	var buf bytes.Buffer
	orig := tuple.NewData(9,
		tuple.Int(1), tuple.Float(2.5), tuple.String_("x"),
		tuple.Bool(true), tuple.TimeVal(77))
	if err := WriteJSON(&buf, sch, orig); err != nil {
		t.Fatal(err)
	}
	got, err := NewJSONScanner(&buf, sch).Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Vals {
		if !got.Vals[i].Equal(orig.Vals[i]) {
			t.Errorf("field %d: %v != %v", i, got.Vals[i], orig.Vals[i])
		}
	}
}

func TestJSONTypeErrorsPerKind(t *testing.T) {
	sch := tuple.NewSchema("k",
		tuple.Field{Name: "i", Kind: tuple.IntKind},
		tuple.Field{Name: "f", Kind: tuple.FloatKind},
		tuple.Field{Name: "s", Kind: tuple.StringKind},
		tuple.Field{Name: "b", Kind: tuple.BoolKind},
		tuple.Field{Name: "t", Kind: tuple.TimeKind},
	)
	for _, bad := range []string{
		`{"i":"x"}`, `{"f":"x"}`, `{"s":5}`, `{"b":"x"}`, `{"t":"x"}`,
		`{"ts_us":"nope"}`,
	} {
		if _, err := NewJSONScanner(strings.NewReader(bad+"\n"), sch).Next(); err == nil {
			t.Errorf("input %s accepted", bad)
		}
	}
}
