package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzUnmarshal hammers the datagram parser with arbitrary bytes: it must
// never panic, and every accepted message must survive a re-marshal round
// trip.
func FuzzUnmarshal(f *testing.F) {
	seed := []*Message{
		{Kind: KindData, Stream: 1, Frame: 2, Seq: 3, Payload: []byte("hello")},
		{Kind: KindAck, Seq: 99},
		{Kind: KindControl, Payload: []byte("SYN")},
		{Kind: KindProbe, Seq: 7, Stream: 1},
	}
	for _, m := range seed {
		data, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("IQ"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		re, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message failed to re-marshal: %v", err)
		}
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-marshaled message rejected: %v", err)
		}
		if m2.Kind != m.Kind || m2.Stream != m.Stream || m2.Frame != m.Frame ||
			m2.Seq != m.Seq || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatal("round trip not stable")
		}
	})
}

// unmarshalReference is the datagram parser as it stood before in-place
// parsing: validate, then copy the payload into a fresh slice (nil when
// empty). FuzzParseFrame holds parseFrame+clone to exactly its answers.
func unmarshalReference(buf []byte) (*Message, error) {
	if len(buf) < headerLen || buf[0] != magic[0] || buf[1] != magic[1] ||
		int(binary.LittleEndian.Uint32(buf[24:])) != len(buf)-headerLen {
		return nil, ErrBadFrame
	}
	m := &Message{
		Kind:   buf[2],
		Stream: binary.LittleEndian.Uint32(buf[4:]),
		Frame:  binary.LittleEndian.Uint64(buf[8:]),
		Seq:    binary.LittleEndian.Uint64(buf[16:]),
	}
	if n := len(buf) - headerLen; n > 0 {
		m.Payload = make([]byte, n)
		copy(m.Payload, buf[headerLen:])
	}
	return m, nil
}

// FuzzParseFrame checks the in-place parser against the reference copying
// parser: the same frames are accepted with the same fields and payload,
// the parsed payload aliases the input, and a clone owns its bytes.
func FuzzParseFrame(f *testing.F) {
	for _, m := range []*Message{
		{Kind: KindData, Stream: 1, Frame: 2, Seq: 3, Payload: []byte("hello")},
		{Kind: KindAck, Seq: 99},
		{Kind: KindProbe, Seq: 7, Stream: 1},
	} {
		data, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(finFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...) // mutated below
		want, werr := unmarshalReference(data)
		var m Message
		err := parseFrame(data, &m)
		if (err != nil) != (werr != nil) {
			t.Fatalf("parseFrame err %v, reference err %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("rejection %v does not wrap ErrBadFrame", err)
			}
			return
		}
		c := m.clone()
		for _, got := range []*Message{&m, c} {
			if got.Kind != want.Kind || got.Stream != want.Stream || got.Frame != want.Frame ||
				got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) ||
				(got.Payload == nil) != (want.Payload == nil) {
				t.Fatalf("parsed %+v, reference %+v", got, want)
			}
		}
		if len(m.Payload) > 0 {
			if &m.Payload[0] != &data[headerLen] || cap(m.Payload) != len(m.Payload) {
				t.Fatal("parsed payload does not alias exactly the input's payload bytes")
			}
			data[headerLen]++
			if c.Payload[0] == data[headerLen] {
				t.Fatal("clone shares the input's payload bytes")
			}
		}
	})
}

// FuzzReadMessage does the same for the stream framing.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, &Message{Kind: KindData, Payload: []byte("x")})
	f.Add(buf.Bytes())
	f.Add([]byte("garbage that is long enough to cover a header at least"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteMessage(&out, m); err != nil {
			t.Fatalf("accepted message failed to re-frame: %v", err)
		}
	})
}
