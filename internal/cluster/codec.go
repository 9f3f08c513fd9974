package cluster

import (
	"encoding/json"
	"fmt"

	"insitu/internal/comm"
)

// Control messages (jobs, results, completion notes) are JSON blobs packed into
// the rank transport's []float32 payloads by comm.PackBytes.

// packJSON marshals v into a packed byte blob.
func packJSON(v any) ([]float32, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return comm.PackBytes(b), nil
}

// unpackJSON unmarshals a packed blob into v and returns any trailing
// words of the message.
func unpackJSON(data []float32, v any) ([]float32, error) {
	b, words, err := comm.UnpackBytes(data)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return nil, fmt.Errorf("cluster: decoding message: %w", err)
	}
	return data[words:], nil
}
