package frame

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"strconv"
	"testing"
	"testing/quick"
)

// pipeFramer returns a framer whose writes land in buf and whose reads
// consume buf, so a write followed by a read round-trips one frame.
func pipeFramer() (*Framer, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewFramer(&buf, &buf), &buf
}

func readOne(t *testing.T, fr *Framer) Frame {
	t.Helper()
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return f
}

func TestDataFrameRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	payload := []byte("hello, flow control")
	if err := fr.WriteData(5, true, payload); err != nil {
		t.Fatalf("WriteData: %v", err)
	}
	f, ok := readOne(t, fr).(*DataFrame)
	if !ok {
		t.Fatalf("got %T, want *DataFrame", f)
	}
	if f.Header().StreamID != 5 {
		t.Errorf("StreamID = %d, want 5", f.Header().StreamID)
	}
	if !f.StreamEnded() {
		t.Error("StreamEnded() = false, want true")
	}
	if !bytes.Equal(f.Data, payload) {
		t.Errorf("Data = %q, want %q", f.Data, payload)
	}
	if got := f.FlowControlLen(); got != len(payload) {
		t.Errorf("FlowControlLen() = %d, want %d", got, len(payload))
	}
}

func TestDataFrameZeroStreamIDRejected(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteData(0, false, []byte("x")); err != nil {
		t.Fatalf("WriteData: %v", err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeProtocol {
		t.Fatalf("err = %v, want PROTOCOL_ERROR ConnError", err)
	}
}

func TestHeadersFrameRoundTripWithPriority(t *testing.T) {
	fr, _ := pipeFramer()
	frag := []byte{0x82, 0x86, 0x84}
	prio := PriorityParam{StreamDep: 3, Exclusive: true, Weight: 200}
	err := fr.WriteHeaders(HeadersParams{
		StreamID:   7,
		Fragment:   frag,
		EndStream:  true,
		EndHeaders: true,
		Priority:   prio,
	})
	if err != nil {
		t.Fatalf("WriteHeaders: %v", err)
	}
	f, ok := readOne(t, fr).(*HeadersFrame)
	if !ok {
		t.Fatalf("got %T, want *HeadersFrame", f)
	}
	if !f.HasPriority() {
		t.Fatal("HasPriority() = false, want true")
	}
	if f.Priority != prio {
		t.Errorf("Priority = %+v, want %+v", f.Priority, prio)
	}
	if !f.StreamEnded() || !f.HeadersEnded() {
		t.Error("END_STREAM/END_HEADERS flags lost in round trip")
	}
	if !bytes.Equal(f.Fragment, frag) {
		t.Errorf("Fragment = %x, want %x", f.Fragment, frag)
	}
}

func TestPriorityFrameRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	prio := PriorityParam{StreamDep: 11, Exclusive: false, Weight: 15}
	if err := fr.WritePriority(9, prio); err != nil {
		t.Fatalf("WritePriority: %v", err)
	}
	f, ok := readOne(t, fr).(*PriorityFrame)
	if !ok {
		t.Fatalf("got %T, want *PriorityFrame", f)
	}
	if f.Priority != prio {
		t.Errorf("Priority = %+v, want %+v", f.Priority, prio)
	}
}

func TestPriorityFrameSelfDependencyEncodable(t *testing.T) {
	// H2Scope must be able to encode a stream depending on itself; the
	// framer must not "helpfully" reject it.
	fr, _ := pipeFramer()
	if err := fr.WritePriority(9, PriorityParam{StreamDep: 9, Weight: 1}); err != nil {
		t.Fatalf("WritePriority: %v", err)
	}
	f := readOne(t, fr).(*PriorityFrame)
	if f.Priority.StreamDep != 9 || f.Header().StreamID != 9 {
		t.Errorf("self-dependency mangled: stream=%d dep=%d", f.Header().StreamID, f.Priority.StreamDep)
	}
}

func TestPriorityFrameBadLength(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypePriority, 0, 3, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	_, err := fr.ReadFrame()
	var se StreamError
	if !errors.As(err, &se) || se.Code != ErrCodeFrameSize {
		t.Fatalf("err = %v, want FRAME_SIZE_ERROR StreamError", err)
	}
}

func TestRSTStreamRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRSTStream(13, ErrCodeRefusedStream); err != nil {
		t.Fatalf("WriteRSTStream: %v", err)
	}
	f, ok := readOne(t, fr).(*RSTStreamFrame)
	if !ok {
		t.Fatalf("got %T, want *RSTStreamFrame", f)
	}
	if f.Code != ErrCodeRefusedStream {
		t.Errorf("Code = %v, want REFUSED_STREAM", f.Code)
	}
}

func TestSettingsRoundTripAndValue(t *testing.T) {
	fr, _ := pipeFramer()
	err := fr.WriteSettings(
		Setting{SettingMaxConcurrentStreams, 128},
		Setting{SettingInitialWindowSize, 65536},
		Setting{SettingMaxConcurrentStreams, 100}, // later occurrence wins
	)
	if err != nil {
		t.Fatalf("WriteSettings: %v", err)
	}
	f, ok := readOne(t, fr).(*SettingsFrame)
	if !ok {
		t.Fatalf("got %T, want *SettingsFrame", f)
	}
	if v, found := f.Value(SettingMaxConcurrentStreams); !found || v != 100 {
		t.Errorf("Value(MAX_CONCURRENT_STREAMS) = %d,%v, want 100,true", v, found)
	}
	if v, found := f.Value(SettingInitialWindowSize); !found || v != 65536 {
		t.Errorf("Value(INITIAL_WINDOW_SIZE) = %d,%v, want 65536,true", v, found)
	}
	if _, found := f.Value(SettingMaxFrameSize); found {
		t.Error("Value(MAX_FRAME_SIZE) found = true, want false")
	}
}

func TestSettingsAck(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteSettingsAck(); err != nil {
		t.Fatalf("WriteSettingsAck: %v", err)
	}
	f := readOne(t, fr).(*SettingsFrame)
	if !f.IsAck() {
		t.Error("IsAck() = false, want true")
	}
	if len(f.Settings) != 0 {
		t.Errorf("ACK carried %d settings, want 0", len(f.Settings))
	}
}

func TestSettingsOnStreamRejected(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeSettings, 0, 1, nil); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeProtocol {
		t.Fatalf("err = %v, want PROTOCOL_ERROR", err)
	}
}

func TestSettingsBadLengthRejected(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeSettings, 0, 0, []byte{0, 3, 0, 0}); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeFrameSize {
		t.Fatalf("err = %v, want FRAME_SIZE_ERROR", err)
	}
}

func TestSettingValidation(t *testing.T) {
	tests := []struct {
		name    string
		setting Setting
		wantErr bool
	}{
		{"enable push 0", Setting{SettingEnablePush, 0}, false},
		{"enable push 1", Setting{SettingEnablePush, 1}, false},
		{"enable push 2", Setting{SettingEnablePush, 2}, true},
		{"initial window max", Setting{SettingInitialWindowSize, MaxWindowSize}, false},
		{"initial window overflow", Setting{SettingInitialWindowSize, MaxWindowSize + 1}, true},
		{"frame size default", Setting{SettingMaxFrameSize, DefaultMaxFrameSize}, false},
		{"frame size too small", Setting{SettingMaxFrameSize, DefaultMaxFrameSize - 1}, true},
		{"frame size max", Setting{SettingMaxFrameSize, MaxAllowedFrameSize}, false},
		{"frame size too large", Setting{SettingMaxFrameSize, MaxAllowedFrameSize + 1}, true},
		{"header table any", Setting{SettingHeaderTableSize, 1 << 30}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.setting.Valid()
			if (err != nil) != tt.wantErr {
				t.Errorf("Valid() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPushPromiseRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	frag := []byte{0x82, 0x84}
	if err := fr.WritePushPromise(1, 2, true, frag); err != nil {
		t.Fatalf("WritePushPromise: %v", err)
	}
	f, ok := readOne(t, fr).(*PushPromiseFrame)
	if !ok {
		t.Fatalf("got %T, want *PushPromiseFrame", f)
	}
	if f.PromiseID != 2 {
		t.Errorf("PromiseID = %d, want 2", f.PromiseID)
	}
	if !f.HeadersEnded() {
		t.Error("HeadersEnded() = false, want true")
	}
	if !bytes.Equal(f.Fragment, frag) {
		t.Errorf("Fragment = %x, want %x", f.Fragment, frag)
	}
}

func TestPingRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	data := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := fr.WritePing(false, data); err != nil {
		t.Fatalf("WritePing: %v", err)
	}
	f := readOne(t, fr).(*PingFrame)
	if f.IsAck() {
		t.Error("IsAck() = true, want false")
	}
	if f.Data != data {
		t.Errorf("Data = %v, want %v", f.Data, data)
	}
}

func TestPingWrongSizeRejected(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypePing, 0, 0, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeFrameSize {
		t.Fatalf("err = %v, want FRAME_SIZE_ERROR", err)
	}
}

func TestGoAwayRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	debug := []byte("window update shouldn't be zero")
	if err := fr.WriteGoAway(41, ErrCodeProtocol, debug); err != nil {
		t.Fatalf("WriteGoAway: %v", err)
	}
	f := readOne(t, fr).(*GoAwayFrame)
	if f.LastStreamID != 41 {
		t.Errorf("LastStreamID = %d, want 41", f.LastStreamID)
	}
	if f.Code != ErrCodeProtocol {
		t.Errorf("Code = %v, want PROTOCOL_ERROR", f.Code)
	}
	if !bytes.Equal(f.DebugData, debug) {
		t.Errorf("DebugData = %q, want %q", f.DebugData, debug)
	}
}

func TestWindowUpdateRoundTripIncludingZero(t *testing.T) {
	fr, _ := pipeFramer()
	for _, inc := range []uint32{0, 1, 65535, MaxWindowSize} {
		if err := fr.WriteWindowUpdate(3, inc); err != nil {
			t.Fatalf("WriteWindowUpdate(%d): %v", inc, err)
		}
		f := readOne(t, fr).(*WindowUpdateFrame)
		if f.Increment != inc {
			t.Errorf("Increment = %d, want %d", f.Increment, inc)
		}
	}
}

func TestContinuationRoundTrip(t *testing.T) {
	fr, _ := pipeFramer()
	frag := []byte("rest of header block")
	if err := fr.WriteRawFrame(TypeContinuation, FlagEndHeaders, 7, frag); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	f := readOne(t, fr).(*ContinuationFrame)
	if !f.HeadersEnded() {
		t.Error("HeadersEnded() = false, want true")
	}
	if !bytes.Equal(f.Fragment, frag) {
		t.Errorf("Fragment = %q, want %q", f.Fragment, frag)
	}
}

// TestSplitHeaderBlockIsOneWrite: WriteHeaders splits a block longer than the
// peer's frame size across CONTINUATION frames under one hold of the write
// lock, so a GOAWAY written from another goroutine never lands between
// HEADERS and END_HEADERS; read back, the blocks assemble whole. Without a
// GOAWAY, the bytes are what separate HEADERS and CONTINUATION writes give.
func TestSplitHeaderBlockIsOneWrite(t *testing.T) {
	block := bytes.Repeat([]byte{0x40}, 3*DefaultMaxFrameSize+100)
	var want, got bytes.Buffer
	wf := NewFramer(&want, nil)
	_ = wf.WriteHeaders(HeadersParams{StreamID: 1, Fragment: block[:DefaultMaxFrameSize], EndStream: true})
	rest := block[DefaultMaxFrameSize:]
	for ; len(rest) > DefaultMaxFrameSize; rest = rest[DefaultMaxFrameSize:] {
		_ = wf.WriteRawFrame(TypeContinuation, 0, 1, rest[:DefaultMaxFrameSize])
	}
	_ = wf.WriteRawFrame(TypeContinuation, FlagEndHeaders, 1, rest)
	_ = NewFramer(&got, nil).WriteHeaders(HeadersParams{StreamID: 1, Fragment: block, EndStream: true, EndHeaders: true, MaxFrameSize: DefaultMaxFrameSize})
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a split block's bytes differ from separate HEADERS and CONTINUATION writes")
	}

	const blocks, goAways = 50, 200
	var wire bytes.Buffer
	fr := NewFramer(&wire, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < goAways; i++ {
			_ = fr.WriteGoAway(1, ErrCodeNo, nil)
		}
	}()
	prio := PriorityParam{StreamDep: 3, Weight: 7}
	for i := 0; i < blocks; i++ {
		_ = fr.WriteHeaders(HeadersParams{StreamID: 1, Fragment: block, EndHeaders: true, Priority: prio, MaxFrameSize: DefaultMaxFrameSize})
	}
	<-done
	rd := NewFramer(nil, &wire)
	var hb HeaderBlock
	var nBlocks, nGoAways int
	for {
		f, err := rd.ReadFrame()
		if err == io.EOF {
			break
		}
		if err == nil {
			if f.Header().Length > DefaultMaxFrameSize {
				t.Fatalf("%v exceeds the frame size", f.Header())
			}
			f, err = hb.Add(f)
		}
		if err != nil {
			t.Fatalf("after %d blocks and %d GOAWAYs: %v", nBlocks, nGoAways, err)
		}
		switch f := f.(type) {
		case *HeadersFrame:
			if !bytes.Equal(f.Fragment, block) || f.Priority != prio {
				t.Fatalf("block %d assembled to %d octets, priority %+v", nBlocks, len(f.Fragment), f.Priority)
			}
			nBlocks++
		case *GoAwayFrame:
			nGoAways++
		}
	}
	if nBlocks != blocks || nGoAways != goAways {
		t.Fatalf("read %d blocks and %d GOAWAYs, want %d and %d", nBlocks, nGoAways, blocks, goAways)
	}
}

func TestUnknownFrameTypeIgnored(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(Type(0xBE), 0x7, 21, []byte{9, 9}); err != nil {
		t.Fatalf("WriteRawFrame: %v", err)
	}
	f, ok := readOne(t, fr).(*UnknownFrame)
	if !ok {
		t.Fatalf("got %T, want *UnknownFrame", f)
	}
	if f.Header().Type != Type(0xBE) || f.Header().StreamID != 21 {
		t.Errorf("header = %v", f.Header())
	}
}

func TestReadFrameEOF(t *testing.T) {
	fr, _ := pipeFramer()
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("ReadFrame on empty stream = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	// Header promising 10 bytes, only 2 present.
	buf.Write([]byte{0, 0, 10, byte(TypeData), 0, 0, 0, 0, 1, 0xAB, 0xCD})
	fr := NewFramer(io.Discard, &buf)
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("ReadFrame on truncated payload succeeded, want error")
	}
}

func TestMaxReadFrameSizeEnforced(t *testing.T) {
	fr, _ := pipeFramer()
	fr.SetMaxReadFrameSize(DefaultMaxFrameSize)
	big := make([]byte, DefaultMaxFrameSize+1)
	if err := fr.WriteData(1, false, big); err != nil {
		t.Fatalf("WriteData: %v", err)
	}
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestHeaderEncodeParseProperty(t *testing.T) {
	payload := make([]byte, 1<<18)
	prop := func(length uint32, typ, flags uint8, stream uint32) bool {
		h := Header{
			Length:   length % (1 << 18), // reaches all three length octets
			Type:     Type(typ),
			Flags:    Flags(flags),
			StreamID: stream & MaxStreamID,
		}
		var wire bytes.Buffer
		if err := NewFramer(&wire, nil).WriteRawFrame(h.Type, h.Flags, h.StreamID, payload[:h.Length]); err != nil {
			return false
		}
		return parseHeader(wire.Bytes()[:HeaderLen]) == h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDataRoundTripProperty(t *testing.T) {
	prop := func(stream uint32, end bool, data []byte) bool {
		stream = stream&MaxStreamID | 1 // nonzero
		if len(data) > DefaultMaxFrameSize {
			data = data[:DefaultMaxFrameSize]
		}
		fr, _ := pipeFramer()
		if err := fr.WriteData(stream, end, data); err != nil {
			return false
		}
		f, err := fr.ReadFrame()
		if err != nil {
			return false
		}
		df, ok := f.(*DataFrame)
		return ok && df.Header().StreamID == stream && df.StreamEnded() == end && bytes.Equal(df.Data, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWireConstantsMatchRFC7540 spells the wire vocabulary out a second
// time, as literals from RFC 7540 sections 6, 6.5.2 and 7: every constant
// frame.go declares with one of the four enum types must be a name listed
// here with exactly this value, and every name here must be declared. A
// wrong value misclassifies server reactions while every test that shares
// the constant still passes, so nothing else in the suite can catch it.
func TestWireConstantsMatchRFC7540(t *testing.T) {
	want := map[string]uint64{
		"TypeData": 0x0, "TypeHeaders": 0x1, "TypePriority": 0x2, "TypeRSTStream": 0x3,
		"TypeSettings": 0x4, "TypePushPromise": 0x5, "TypePing": 0x6, "TypeGoAway": 0x7,
		"TypeWindowUpdate": 0x8, "TypeContinuation": 0x9,
		"FlagEndStream": 0x1, "FlagAck": 0x1, "FlagEndHeaders": 0x4, "FlagPadded": 0x8, "FlagPriority": 0x20,
		"SettingHeaderTableSize": 0x1, "SettingEnablePush": 0x2, "SettingMaxConcurrentStreams": 0x3,
		"SettingInitialWindowSize": 0x4, "SettingMaxFrameSize": 0x5, "SettingMaxHeaderListSize": 0x6,
		"ErrCodeNo": 0x0, "ErrCodeProtocol": 0x1, "ErrCodeInternal": 0x2, "ErrCodeFlowControl": 0x3,
		"ErrCodeSettingsTimeout": 0x4, "ErrCodeStreamClosed": 0x5, "ErrCodeFrameSize": 0x6,
		"ErrCodeRefusedStream": 0x7, "ErrCodeCancel": 0x8, "ErrCodeCompression": 0x9, "ErrCodeConnect": 0xa,
		"ErrCodeEnhanceYourCalm": 0xb, "ErrCodeInadequateSecurity": 0xc, "ErrCodeHTTP11Required": 0xd,
	}
	enums := map[string]bool{"Type": true, "Flags": true, "SettingID": true, "ErrCode": true}
	file, err := parser.ParseFile(token.NewFileSet(), "frame.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || !enums[id.Name] || len(vs.Names) != 1 || len(vs.Values) != 1 {
				continue
			}
			name := vs.Names[0].Name
			lit, _ := vs.Values[0].(*ast.BasicLit)
			if w, known := want[name]; !known {
				t.Errorf("%s is not a name RFC 7540 defines", name)
			} else if lit == nil {
				t.Errorf("%s is not declared as a literal", name)
			} else if got, err := strconv.ParseUint(lit.Value, 0, 64); err != nil || got != w {
				t.Errorf("%s = %s, RFC 7540 defines %#x", name, lit.Value, w)
			}
			delete(want, name)
		}
	}
	for name := range want {
		t.Errorf("RFC 7540 constant %s is not declared", name)
	}
	if HeaderLen != 9 || DefaultMaxFrameSize != 16384 || MaxAllowedFrameSize != 16777215 ||
		DefaultInitialWindowSize != 65535 || MaxWindowSize != 2147483647 || MaxStreamID != 2147483647 ||
		DefaultHeaderTableSize != 4096 || ClientPreface != "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n" {
		t.Error("a size, window or preface constant differs from RFC 7540 sections 3.5, 4.1, 4.2, 6.5.2, 6.9.1")
	}
}

func TestTypeAndErrCodeStrings(t *testing.T) {
	if got := TypeWindowUpdate.String(); got != "WINDOW_UPDATE" {
		t.Errorf("TypeWindowUpdate.String() = %q", got)
	}
	if got := Type(0xFE).String(); got != "UNKNOWN_FRAME_TYPE_254" {
		t.Errorf("unknown type string = %q", got)
	}
	if got := ErrCodeEnhanceYourCalm.String(); got != "ENHANCE_YOUR_CALM" {
		t.Errorf("ErrCodeEnhanceYourCalm.String() = %q", got)
	}
	if got := (ConnError{ErrCodeProtocol, "x"}).Error(); got == "" {
		t.Error("ConnError.Error() empty")
	}
	if got := (StreamError{1, ErrCodeCancel, "y"}).Error(); got == "" {
		t.Error("StreamError.Error() empty")
	}
}

// buildPadded constructs a padded DATA or HEADERS payload by hand, since
// the writer never emits padding but the reader must accept it.
func buildPadded(data []byte, padLen int) []byte {
	p := make([]byte, 0, 1+len(data)+padLen)
	p = append(p, byte(padLen))
	p = append(p, data...)
	return append(p, make([]byte, padLen)...)
}

func TestPaddedDataFrameRead(t *testing.T) {
	fr, _ := pipeFramer()
	payload := buildPadded([]byte("abc"), 5)
	if err := fr.WriteRawFrame(TypeData, FlagPadded|FlagEndStream, 7, payload); err != nil {
		t.Fatal(err)
	}
	f := readOne(t, fr).(*DataFrame)
	if !bytes.Equal(f.Data, []byte("abc")) {
		t.Errorf("Data = %q", f.Data)
	}
	if f.PadLength != 5 {
		t.Errorf("PadLength = %d, want 5", f.PadLength)
	}
	// Flow control covers data + padding + the pad-length octet.
	if got := f.FlowControlLen(); got != 3+5+1 {
		t.Errorf("FlowControlLen = %d, want 9", got)
	}
}

func TestPaddedDataPaddingExceedsPayload(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeData, FlagPadded, 7, []byte{200, 'a'}); err != nil {
		t.Fatal(err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeProtocol {
		t.Fatalf("err = %v, want PROTOCOL_ERROR", err)
	}
}

func TestPaddedEmptyDataRejected(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeData, FlagPadded, 7, nil); err != nil {
		t.Fatal(err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeFrameSize {
		t.Fatalf("err = %v, want FRAME_SIZE_ERROR", err)
	}
}

func TestPaddedHeadersFrameRead(t *testing.T) {
	fr, _ := pipeFramer()
	frag := []byte{0x82, 0x86}
	payload := buildPadded(frag, 3)
	if err := fr.WriteRawFrame(TypeHeaders, FlagPadded|FlagEndHeaders, 9, payload); err != nil {
		t.Fatal(err)
	}
	f := readOne(t, fr).(*HeadersFrame)
	if !bytes.Equal(f.Fragment, frag) {
		t.Errorf("Fragment = %x, want %x", f.Fragment, frag)
	}
	if f.PadLength != 3 {
		t.Errorf("PadLength = %d", f.PadLength)
	}
}

func TestPaddedHeadersWithPriorityRead(t *testing.T) {
	fr, _ := pipeFramer()
	frag := []byte{0x82}
	// pad-length(1) + stream-dep(4) + weight(1) + fragment + padding.
	payload := []byte{2, 0x80, 0, 0, 3, 99}
	payload = append(payload, frag...)
	payload = append(payload, 0, 0)
	if err := fr.WriteRawFrame(TypeHeaders, FlagPadded|FlagPriority|FlagEndHeaders, 9, payload); err != nil {
		t.Fatal(err)
	}
	f := readOne(t, fr).(*HeadersFrame)
	if !f.Priority.Exclusive || f.Priority.StreamDep != 3 || f.Priority.Weight != 99 {
		t.Errorf("Priority = %+v", f.Priority)
	}
	if !bytes.Equal(f.Fragment, frag) {
		t.Errorf("Fragment = %x", f.Fragment)
	}
}

func TestHeadersPriorityTruncated(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeHeaders, FlagPriority, 9, []byte{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeFrameSize {
		t.Fatalf("err = %v, want FRAME_SIZE_ERROR", err)
	}
}

func TestGoAwayTooShort(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeGoAway, 0, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeFrameSize {
		t.Fatalf("err = %v, want FRAME_SIZE_ERROR", err)
	}
}

func TestRSTStreamZeroStream(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeRSTStream, 0, 0, []byte{0, 0, 0, 8}); err != nil {
		t.Fatal(err)
	}
	_, err := fr.ReadFrame()
	var ce ConnError
	if !errors.As(err, &ce) || ce.Code != ErrCodeProtocol {
		t.Fatalf("err = %v, want PROTOCOL_ERROR", err)
	}
}

func TestWritePayloadTooLargeRejected(t *testing.T) {
	fr, _ := pipeFramer()
	if err := fr.WriteRawFrame(TypeData, 0, 1, make([]byte, 1<<24)); err == nil {
		t.Fatal("24-bit length overflow accepted")
	}
}
