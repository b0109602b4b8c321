package wire

// Test hooks into the buffer pool and parser internals.

const MaxPooledBuf = maxPooledBuf

var (
	GetBuf = getBuf
	PutBuf = putBuf
)

// ParseRequestForFuzz decodes one binary request payload, with interning,
// exactly as ReadRequest does after deframing.
func ParseRequestForFuzz(p []byte, req *Request) error {
	in := &interner{m: make(map[string]string)}
	return parseRequest(p, req, in)
}

// ParseResponseForFuzz decodes one binary response payload.
func ParseResponseForFuzz(p []byte, resp *Response) error {
	return parseResponse(p, resp)
}

// AppendRequestForFuzz re-encodes a request payload (no frame header).
// The op must be one requestKind knows.
func AppendRequestForFuzz(b []byte, req *Request) []byte {
	return appendRequest(b, requestKind(req.Op), req)
}

// AppendResponseForFuzz re-encodes a response payload (no frame header).
func AppendResponseForFuzz(b []byte, resp *Response) []byte { return appendResponse(b, resp) }
