"""The svc-mixed yardstick's HTTP server: it answers every POST with a
fixed transformation of the JSON body it received.

Started by ``svc.EchoYardstick`` on the CPU the service runs on; it prints
its port on the first line of standard output and serves until killed.
It is the benchmark's own code, built only on the standard library's
``http.server`` (the same base the replay service uses), so no change to
the repository can move it.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        out = json.dumps({"echo": body, "keys": sorted(body)}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
