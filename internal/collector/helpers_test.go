package collector

import (
	"context"
	"net/http"

	"adaudit/internal/wsproto"
)

// beaconDialer sends raw WebSocket text messages to the collector,
// bypassing the beacon package's payload validation — for exercising the
// server's rejection paths.
type beaconDialer struct {
	url string
}

func (d *beaconDialer) sendRaw(ctx context.Context, msg string) error {
	dial := &wsproto.Dialer{}
	conn, _, err := dial.Dial(ctx, d.url)
	if err != nil {
		return err
	}
	defer conn.Close(wsproto.CloseNormal, "")
	return conn.WriteText(msg)
}

func httpGet(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
