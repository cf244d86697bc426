package beacon

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ScriptConfig parameterises the embeddable JavaScript snippet.
type ScriptConfig struct {
	// CollectorURL is the ws:// or wss:// endpoint the beacon reports to.
	CollectorURL string
	// CampaignID and CreativeID identify the ad the snippet ships in.
	CampaignID string
	CreativeID string
	// MouseMoveThrottleMS rate-limits mousemove events (default 500ms),
	// keeping the beacon "light" as §3 requires.
	MouseMoveThrottleMS int
}

// Script renders the JavaScript the advertiser pastes into the HTML5
// creative — the actual artifact the paper's methodology injects. It is
// plain ES5 (2016-era browsers inside ad iframes), uses the native
// WebSocket API, reads document.referrer for the page URL (the
// Same-Origin policy hides the top frame's location from a cross-origin
// iframe, as §3.1 discusses), and reports mouse movements and clicks.
// The connection is left open until page unload so the server-side
// connection duration measures ad exposure time.
func Script(cfg ScriptConfig) (string, error) {
	if cfg.CollectorURL == "" {
		return "", fmt.Errorf("beacon: script requires a collector URL")
	}
	if !strings.HasPrefix(cfg.CollectorURL, "ws://") && !strings.HasPrefix(cfg.CollectorURL, "wss://") {
		return "", fmt.Errorf("beacon: collector URL must be ws:// or wss://, got %q", cfg.CollectorURL)
	}
	if cfg.CampaignID == "" || cfg.CreativeID == "" {
		return "", fmt.Errorf("beacon: script requires campaign and creative ids")
	}
	throttle := cfg.MouseMoveThrottleMS
	if throttle <= 0 {
		throttle = 500
	}
	// JSON-encode the strings so arbitrary IDs cannot break out of the
	// script context.
	u, err := json.Marshal(cfg.CollectorURL)
	if err != nil {
		// json.Marshal of a plain string cannot fail (invalid UTF-8 is
		// replaced, not rejected); a non-nil error here means the
		// encoder's contract changed under us — make that loud.
		panic(fmt.Sprintf("beacon: marshaling collector URL: %v", err))
	}
	cid, err := json.Marshal(cfg.CampaignID)
	if err != nil {
		panic(fmt.Sprintf("beacon: marshaling campaign id: %v", err))
	}
	crid, err := json.Marshal(cfg.CreativeID)
	if err != nil {
		panic(fmt.Sprintf("beacon: marshaling creative id: %v", err))
	}

	return fmt.Sprintf(`(function () {
  "use strict";
  var COLLECTOR = %s, CID = %s, CRID = %s, THROTTLE = %d;
  var t0 = new Date().getTime();
  var page = "";
  try { page = window.top.location.href; } catch (e) { /* cross-origin iframe */ }
  if (!page) { page = document.referrer || ""; }
  if (!page) { return; } // nothing attributable to report
  var ws;
  try { ws = new WebSocket(COLLECTOR); } catch (e) { return; }
  function enc(s) { return encodeURIComponent(s); }
  ws.onopen = function () {
    ws.send("v=%d&cid=" + enc(CID) + "&crid=" + enc(CRID) +
            "&url=" + enc(page) + "&ua=" + enc(navigator.userAgent));
  };
  function at() { return new Date().getTime() - t0; }
  function send(kind) {
    if (ws.readyState === 1) { ws.send("ev:" + kind + "@" + at()); }
  }
  var lastMove = 0;
  document.addEventListener("mousemove", function () {
    var now = new Date().getTime();
    if (now - lastMove >= THROTTLE) { lastMove = now; send("move"); }
  });
  document.addEventListener("click", function () { send("click"); });
  // Visibility extension: in friendly iframes (or browsers with
  // IntersectionObserver) report the visible-pixel fraction, lifting
  // the cross-origin upper-bound limitation where possible.
  if (typeof IntersectionObserver !== "undefined") {
    try {
      var io = new IntersectionObserver(function (entries) {
        for (var i = 0; i < entries.length; i++) {
          var r = entries[i].intersectionRatio;
          if (ws.readyState === 1) {
            ws.send("ev:vis@" + at() + ":" + r.toFixed(3));
          }
        }
      }, { threshold: [0, 0.25, 0.5, 0.75, 1] });
      io.observe(document.body);
    } catch (e) { /* cross-origin or unsupported: upper bound only */ }
  }
  window.addEventListener("beforeunload", function () {
    try { ws.close(1001); } catch (e) {}
  });
}());
`, u, cid, crid, throttle, PayloadVersion), nil
}
