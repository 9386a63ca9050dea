package api

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"svwsim/internal/pipeline"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// fill sets every numeric field of the struct v points to (array elements
// included) to a distinct non-zero value derived from seed; float fields
// get values with no short decimal form, so an encoding that rounds shows
// up. It fails the test on any field kind it does not know, so a new
// field type forces this helper (and the tests using it) to be revisited.
func fill(t *testing.T, v any, seed uint64) {
	t.Helper()
	n := seed
	var set func(f reflect.Value, name string)
	set = func(f reflect.Value, name string) {
		n++
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(n)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Float64:
			f.SetFloat(float64(n) / 3)
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				set(f.Index(i), name)
			}
		default:
			t.Fatalf("fill: field %s has unhandled kind %s", name, f.Kind())
		}
	}
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		set(s.Field(i), s.Type().Field(i).Name)
	}
}

// TestResultRoundTripsEveryStatsField pins what the study reduce relies
// on: MarshalResult bytes decode back to the identical result — every
// pipeline.Stats counter and float rate — and re-encode to the same bytes.
func TestResultRoundTripsEveryStatsField(t *testing.T) {
	res := engine.Result{Bench: "gcc", Config: "ssq+SVW+UPD"}
	fill(t, &res.Stats, 0)
	b, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, res)
	}
	again, err := MarshalResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("re-encoding a decoded result changed its bytes")
	}
	if got.Stats.IPC() != res.Stats.IPC() || got.Stats.RexRate() != res.Stats.RexRate() {
		t.Fatal("derived rates differ after the round trip")
	}
}

func TestRenameResult(t *testing.T) {
	res := engine.Result{Bench: "gcc", Config: "ssq+svw/ssn16"}
	fill(t, &res.Stats, 7)
	b, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}

	// The name already matches: the very same bytes, no allocation.
	same, err := RenameResult(b, res.Config)
	if err != nil || &same[0] != &b[0] {
		t.Fatalf("matching name was not served as is (err %v)", err)
	}
	if n := testing.AllocsPerRun(100, func() { RenameResult(b, res.Config) }); n != 0 {
		t.Fatalf("matching name allocated %v times", n)
	}

	// A different name — including a prefix of the stored one and a name
	// JSON must escape — is re-encoded with only the name changed.
	for _, name := range []string{"ssq+SVW+UPD", "ssq+svw", "a<b>&\"c\""} {
		got, err := RenameResult(b, name)
		if err != nil {
			t.Fatal(err)
		}
		want := res
		want.Config = name
		wantBytes, _ := MarshalResult(want)
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("rename to %q:\n%s\nwant\n%s", name, got, wantBytes)
		}
		if again, _ := RenameResult(got, name); !bytes.Equal(again, got) {
			t.Fatalf("renamed bytes for %q do not match their own name", name)
		}
	}
	if _, err := RenameResult([]byte("not json"), "x"); err == nil {
		t.Fatal("renaming garbage succeeded")
	}
}

func TestDecodeBody(t *testing.T) {
	decode := func(body string, limit int64) (*httptest.ResponseRecorder, RunRequest, bool) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		var req RunRequest
		ok := DecodeBody(w, r, limit, &req)
		return w, req, ok
	}
	if _, req, ok := decode(`{"config":"ssq","bench":"gcc","insts":5}`+"\n", 1024); !ok ||
		req.Config != "ssq" || req.Bench != "gcc" || req.Insts != 5 {
		t.Fatalf("valid body: ok=%v req=%+v", ok, req)
	}
	cases := []struct {
		name, body string
		limit      int64
		status     int
	}{
		{"over the size limit", `{"config":"` + strings.Repeat("x", 200) + `"}`, 64, http.StatusRequestEntityTooLarge},
		{"trailing object", `{"config":"ssq"}{"config":"nlq"}`, 1024, http.StatusBadRequest},
		{"trailing garbage", `{"config":"ssq"} junk`, 1024, http.StatusBadRequest},
		{"unknown field", `{"config":"ssq","bogus":1}`, 1024, http.StatusBadRequest},
		{"not json", `config=ssq`, 1024, http.StatusBadRequest},
	}
	for _, c := range cases {
		w, _, ok := decode(c.body, c.limit)
		if ok || w.Code != c.status {
			t.Errorf("%s: ok=%v HTTP %d, want rejected with %d", c.name, ok, w.Code, c.status)
		}
		if !strings.Contains(w.Body.String(), `"error"`) {
			t.Errorf("%s: body %q is not an ErrorResponse", c.name, w.Body)
		}
	}
}

func TestSampleRoundTrip(t *testing.T) {
	spec := pipeline.SampleSpec{Warmup: 1_000, Detail: 2_000, Period: 50_000}
	var sweep SweepRequest
	sweep.SetSample(spec)
	if sweep.Sample() != spec {
		t.Fatalf("SweepRequest: %+v -> %+v", spec, sweep.Sample())
	}
	run := RunRequest{SampleWarmup: spec.Warmup, SampleDetail: spec.Detail, SamplePeriod: spec.Period}
	if got := run.Sweep(); got.Sample() != spec {
		t.Fatalf("RunRequest.Sweep: %+v -> %+v", spec, got.Sample())
	}
	sweep.SetSample(pipeline.SampleSpec{})
	if sweep.Sample().Enabled() || sweep.SampleWarmup != 0 || sweep.SampleDetail != 0 || sweep.SamplePeriod != 0 {
		t.Fatalf("clearing the spec left %+v", sweep)
	}
}

// TestStatsSectionsAddEveryField reflects over each StatsResponse section
// with an Add method: summing two filled values must sum every field.
func TestStatsSectionsAddEveryField(t *testing.T) {
	check := func(name string, a, b, sum any) {
		t.Helper()
		va, vb, vs := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), reflect.ValueOf(sum).Elem()
		for i := 0; i < vs.NumField(); i++ {
			f := vs.Type().Field(i).Name
			switch vs.Field(i).Kind() {
			case reflect.Uint64:
				if vs.Field(i).Uint() != va.Field(i).Uint()+vb.Field(i).Uint() {
					t.Errorf("%s.Add drops %s", name, f)
				}
			default:
				if vs.Field(i).Int() != va.Field(i).Int()+vb.Field(i).Int() {
					t.Errorf("%s.Add drops %s", name, f)
				}
			}
		}
	}
	var c1, c2 CacheStats
	fill(t, &c1, 0)
	fill(t, &c2, 100)
	cs := c1
	cs.Add(c2)
	check("CacheStats", &c1, &c2, &cs)

	var e1, e2 EngineStats
	fill(t, &e1, 0)
	fill(t, &e2, 100)
	es := e1
	es.Add(e2)
	check("EngineStats", &e1, &e2, &es)

	var g1, g2 GateStats
	fill(t, &g1, 0)
	fill(t, &g2, 100)
	gs := g1
	gs.Add(g2)
	check("GateStats", &g1, &g2, &gs)
}

// TestSweepDoneAddTalliesEveryField: one event of each kind — a memory,
// disk and peer hit, a miss, a failed miss — lands in its own fields, and
// every field but Jobs is reached by some event, so a field added to the
// summary without a tally fails here.
func TestSweepDoneAddTalliesEveryField(t *testing.T) {
	var d SweepDone
	for _, ev := range []SweepEvent{
		{Cached: true, Origin: CacheMemory},
		{Cached: true, Origin: CacheDisk},
		{Cached: true, Origin: CachePeer},
		{},
		{Error: "boom"},
	} {
		d.Add(ev)
	}
	want := SweepDone{CacheHits: 3, DiskHits: 1, PeerHits: 1, CacheMisses: 2, Errors: 1}
	if d != want {
		t.Fatalf("tallied %+v, want %+v", d, want)
	}
	v := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Jobs" && v.Field(i).Int() == 0 {
			t.Errorf("SweepDone.Add never tallies %s", name)
		}
	}
}

// TestPlan: a run and the one-cell sweep it becomes plan to the same job;
// a matrix plans config-major with the resolved spec on every job; and
// each rejection carries the message both services answer 400 with.
func TestPlan(t *testing.T) {
	def := pipeline.SampleSpec{Warmup: 1_000, Detail: 1_000, Period: 10_000}
	run := RunRequest{Config: " SSQ+SVW ", Bench: "gcc", Insts: 5_000}
	sweep := run.Sweep()
	cells, err := sweep.Plan(def, 1)
	if err != nil || len(cells) != 1 {
		t.Fatalf("run plan: %v, %d jobs", err, len(cells))
	}
	want, _ := sim.ConfigByName("ssq+svw")
	if j := cells[0].Job; j.Config.Name != want.Name || j.Label != want.Name || j.Bench != "gcc" ||
		j.Insts != 5_000 || j.Sample != def {
		t.Fatalf("run planned as %s/%s on %s, %d insts, spec %+v", j.Label, j.Config.Name, j.Bench, j.Insts, j.Sample)
	}
	matrix := SweepRequest{Configs: []string{"ssq", "nlq"}, Benches: []string{"gcc", "twolf"}}
	matrix.SetSample(pipeline.SampleSpec{Warmup: 10, Detail: 10, Period: 100})
	cells, err = matrix.Plan(def, 4)
	if err != nil || len(cells) != 4 {
		t.Fatalf("matrix plan: %v, %d jobs", err, len(cells))
	}
	for i, c := range matrix.Flatten() {
		want, _ := sim.ConfigByName(c.Config)
		if j := cells[i].Job; j.Config.Name != want.Name || j.Bench != c.Bench || j.Sample != matrix.Sample() {
			t.Errorf("job %d planned as %s on %s (%+v), want %s on %s", i, j.Config.Name, j.Bench,
				j.Sample, want.Name, c.Bench)
		}
	}
	for _, bad := range []struct {
		req  SweepRequest
		want string
	}{
		{SweepRequest{}, "sweep matrix is empty: need configs and benches, or cells"},
		{matrix, "sweep matrix has 4 jobs, limit is 3"},
		{SweepRequest{Cells: []SweepCell{{"ssq", "gcc"}}, SampleDetail: 1},
			pipeline.SampleSpec{Detail: 1}.Validate().Error()},
		{(&RunRequest{Config: "no-such", Bench: "gcc"}).Sweep(), `unknown config "no-such"`},
		{(&RunRequest{Config: "ssq", Bench: "no-such"}).Sweep(), `unknown benchmark "no-such"`},
	} {
		if _, err := bad.req.Plan(pipeline.SampleSpec{}, 3); err == nil || err.Error() != bad.want {
			t.Errorf("%+v: error %v, want %q", bad.req, err, bad.want)
		}
	}
}

// TestSplitResults: a concatenation of MarshalResult cells splits back
// into exactly those cells, and a body that does not hold n whole cells —
// cut off anywhere, or holding another count — is an error.
func TestSplitResults(t *testing.T) {
	var cells [][]byte
	var body []byte
	for i, name := range []string{"ssq", "ssq+svw", "nlq"} {
		res := engine.Result{Bench: "gcc", Config: name}
		fill(t, &res.Stats, uint64(10*i))
		b, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, b)
		body = append(body, b...)
	}
	got, err := SplitResults(body, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Fatal("split cells differ from the encoded ones")
	}
	if _, err := SplitResults(body, 2); err == nil {
		t.Error("3 cells split as 2")
	}
	if _, err := SplitResults(nil, 1); err == nil {
		t.Error("an empty body split as 1 cell")
	}
	for cut := 1; cut < len(body); cut++ {
		if _, err := SplitResults(body[:cut], len(cells)); err == nil {
			t.Fatalf("body cut at %d of %d split cleanly", cut, len(body))
		}
	}
	if _, err := SplitResults(append(body[:len(body):len(body)], " "...), len(cells)); err == nil {
		t.Error("trailing bytes after the last cell were accepted")
	}
}

// TestSweepRequestForms: both forms flatten into job order, and a request
// that mixes them or names no cells is rejected.
func TestSweepRequestForms(t *testing.T) {
	matrix := SweepRequest{Configs: []string{"a", "b"}, Benches: []string{"x", "y"}}
	want := []SweepCell{{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}}
	if err := matrix.CheckForm(); err != nil || matrix.NumCells() != 4 ||
		!reflect.DeepEqual(matrix.Flatten(), want) {
		t.Fatalf("matrix form: err %v, %d cells %v", err, matrix.NumCells(), matrix.Flatten())
	}
	list := SweepRequest{Cells: []SweepCell{{"b", "y"}, {"a", "x"}, {"b", "y"}}}
	if err := list.CheckForm(); err != nil || list.NumCells() != 3 ||
		!reflect.DeepEqual(list.Flatten(), list.Cells) {
		t.Fatalf("cells form: err %v, %d cells %v", err, list.NumCells(), list.Flatten())
	}
	for name, bad := range map[string]SweepRequest{
		"empty":           {},
		"configs only":    {Configs: []string{"a"}},
		"empty cells":     {Cells: []SweepCell{}},
		"cells + configs": {Configs: []string{"a"}, Cells: []SweepCell{{"a", "x"}}},
		"cells + benches": {Benches: []string{"x"}, Cells: []SweepCell{{"a", "x"}}},
	} {
		if bad.CheckForm() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
