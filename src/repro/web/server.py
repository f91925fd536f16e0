"""Origin servers.

One :class:`OriginServer` is one IP endpoint terminating TLS.  Real
servers select the presented certificate by SNI, which is how *domain
sharding with disjunct certificates on the same host* (the paper's CERT
cause) exists at all: the same IP answers ``static.klaviyo.com`` and
``fast.a.klaviyo.com`` with two different Let's Encrypt certificates.

Servers can also:

* answer **421 Misdirected Request** for domains their operator has not
  configured on this endpoint even though a certificate would cover them
  (the paper's "explicitly excluded domains" exception, filtered by the
  methodology), and
* advertise extra origins via the RFC 8336 **ORIGIN frame** (not
  honoured by Chromium, so off by default in the browser model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.faults.plan import FaultKind
from repro.h2.connection import HTTP_MISDIRECTED_REQUEST
from repro.tls.certificate import Certificate, degrade_certificate
from repro.util.domains import normalize
from repro.util.rng import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.util.clock import SimClock

__all__ = ["FaultedEndpoint", "OriginServer", "build_fleet"]


@lru_cache(maxsize=1 << 16)
def _body_size(domain: str, path: str) -> int:
    """Deterministic response size for one URL (pure, hence memoized)."""
    return 200 + stable_hash("body", domain, path) % 50_000


@lru_cache(maxsize=1 << 14)
def _session_cookie(domain: str) -> str:
    return f"sid={stable_hash('sid', domain) % 10**9}"


@lru_cache(maxsize=1 << 16)
def _response(
    domain: str, path: str, with_cookie: bool, server_name: str
) -> tuple[int, list[tuple[str, str]], int]:
    """The 200 response for one distinct request shape (pure, memoized).

    Responses are a pure function of (domain, path, cookie?, server
    name), so the header list is built once per shape and handed out as
    the same object, which callers must not mutate.  ``lru_cache``
    replaces the per-server memo dict the pre-lint code used: ecosystem
    servers are shared across thread-executor crawl tasks, and an
    unguarded dict write from two sites hitting the same endpoint
    concurrently was a data race.
    """
    body_size = _body_size(domain, path)
    headers = [
        ("content-type", "application/octet-stream"),
        ("content-length", str(body_size)),
        ("server", server_name),
    ]
    if with_cookie:
        headers.append(("set-cookie", _session_cookie(domain)))
    return (200, headers, body_size)


@dataclass
class OriginServer:
    """A TLS endpoint serving one or more domains on a single IP."""

    ip: str
    name: str
    cert_map: dict[str, Certificate]
    default_certificate: Certificate
    alpn: str = "h2"
    #: Advertises HTTP/3 support via an alt-svc header; browsers with
    #: QUIC enabled switch to h3 on subsequent connections (the paper
    #: disabled QUIC precisely to avoid this, §4.2.2).
    alt_svc_h3: bool = False
    origin_frame_origins: tuple[str, ...] = ()
    excluded_domains: set[str] = field(default_factory=set)
    #: Diagnostic counters; unsynchronised, so only meaningful after
    #: single-threaded use (pool workers mutate their own copies — see
    #: the :mod:`repro.runtime` contract).
    requests_served: int = 0
    misdirected_responses: int = 0

    def __post_init__(self) -> None:
        self.cert_map = {normalize(k): v for k, v in self.cert_map.items()}
        self.excluded_domains = {normalize(d) for d in self.excluded_domains}

    # The ServerEndpoint protocol expects a ``certificate`` attribute for
    # the connection being established; SNI decides which one.
    @property
    def certificate(self) -> Certificate:
        return self.default_certificate

    def certificate_for(self, sni: str) -> Certificate:
        """The certificate presented when the client sends ``sni``."""
        sni = normalize(sni)
        if sni in self.cert_map:
            return self.cert_map[sni]
        for cert in self.cert_map.values():
            if cert.covers(sni):
                return cert
        return self.default_certificate

    def serves(self, domain: str) -> bool:
        """Is ``domain`` configured (vhosted) on this endpoint?"""
        domain = normalize(domain)
        if domain in self.excluded_domains:
            return False
        if domain in self.cert_map:
            return True
        return any(cert.covers(domain) for cert in self.cert_map.values())

    def handle_request(
        self, domain: str, path: str, *, method: str, credentials: bool
    ) -> tuple[int, list[tuple[str, str]], int]:
        """Serve a request for ``https://domain path``.

        Returns 421 when the domain reached this endpoint via connection
        coalescing but is not configured here (RFC 7540 §9.1.2).
        """
        domain = normalize(domain)
        self.requests_served += 1
        if not self.serves(domain):
            self.misdirected_responses += 1
            return (
                HTTP_MISDIRECTED_REQUEST,
                [("content-type", "text/plain"), ("content-length", "0")],
                0,
            )
        return _response(
            domain, path, credentials and method == "GET", self.name
        )

    def advertised_origins(self) -> tuple[str, ...]:
        return self.origin_frame_origins


#: Degradation modes for the TLS fault kinds, in the order the wrapper
#: consults them (one draw each per SNI).
_TLS_DEGRADATIONS: tuple[tuple[FaultKind, str], ...] = (
    (FaultKind.TLS_EXPIRED, "expired"),
    (FaultKind.TLS_SAN_MISMATCH, "san-mismatch"),
    (FaultKind.TLS_UNTRUSTED_ISSUER, "untrusted-issuer"),
)


@dataclass
class FaultedEndpoint:
    """A per-connection ``ServerEndpoint`` decorator injecting faults.

    The pool's ``server_lookup`` returns one wrapper per connection
    attempt, so per-endpoint fault state (an in-progress 5xx burst, the
    degraded-or-not certificate decision per SNI) is scoped to that
    connection and never leaks into the shared
    :class:`OriginServer` objects of the ecosystem — which other sites
    of the same study are concurrently measured against.
    """

    inner: OriginServer
    faults: "FaultPlan"
    clock: "SimClock"
    # thread-safe: one FaultedEndpoint per connection attempt (see class
    # docstring); the wrapper never outlives its visit task.
    _cert_decisions: dict[str, Certificate] = field(
        default_factory=dict, repr=False
    )
    _burst_remaining: int = 0

    @property
    def ip(self) -> str:
        return self.inner.ip

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def alpn(self) -> str:
        return self.inner.alpn

    @property
    def alt_svc_h3(self) -> bool:
        return self.inner.alt_svc_h3

    @property
    def certificate(self) -> Certificate:
        return self.inner.certificate

    def certificate_for(self, sni: str) -> Certificate:
        """The (possibly degraded) certificate presented for ``sni``.

        The degradation decision is drawn once per SNI and cached, so
        the certificate the pool verifies at handshake time is the same
        object the established connection records.
        """
        cached = self._cert_decisions.get(sni)
        if cached is not None:
            return cached
        certificate = self.inner.certificate_for(sni)
        for kind, mode in _TLS_DEGRADATIONS:
            if self.faults.fires(kind):
                certificate = degrade_certificate(
                    certificate, mode, now=self.clock.now()
                )
                break
        self._cert_decisions[sni] = certificate
        return certificate

    def serves(self, domain: str) -> bool:
        return self.inner.serves(domain)

    def handle_request(
        self, domain: str, path: str, *, method: str, credentials: bool
    ) -> tuple[int, list[tuple[str, str]], int]:
        """Serve via the real endpoint, then maybe break the response.

        5xx faults arrive in bursts (one draw arms ``param`` consecutive
        503s, modelling an origin briefly falling over); truncation cuts
        the delivered body to ``param`` of its announced length while
        the headers keep advertising the full content-length — the §4.3
        logging-inconsistency shape, server-made.
        """
        status, headers, body_size = self.inner.handle_request(
            domain, path, method=method, credentials=credentials
        )
        if status != 200:
            return status, headers, body_size
        if self._burst_remaining > 0:
            self._burst_remaining -= 1
            return self._unavailable()
        if self.faults.fires(FaultKind.SRV_ERROR_BURST):
            self._burst_remaining = max(
                0, int(self.faults.param(FaultKind.SRV_ERROR_BURST, 1.0)) - 1
            )
            return self._unavailable()
        if self.faults.fires(FaultKind.SRV_TRUNCATED_BODY):
            factor = self.faults.param(FaultKind.SRV_TRUNCATED_BODY, 0.25)
            return status, headers, int(body_size * factor)
        return status, headers, body_size

    @staticmethod
    def _unavailable() -> tuple[int, list[tuple[str, str]], int]:
        return (
            503,
            [("content-type", "text/plain"), ("content-length", "0"),
             ("retry-after", "1")],
            0,
        )

    def advertised_origins(self) -> tuple[str, ...]:
        return self.inner.advertised_origins()


def build_fleet(
    ips: list[str],
    *,
    name: str,
    cert_map: dict[str, Certificate],
    default_certificate: Certificate | None = None,
    alpn: str = "h2",
    alt_svc_h3: bool = False,
    origin_frame_origins: tuple[str, ...] = (),
    excluded_domains: set[str] | None = None,
) -> list[OriginServer]:
    """Create one interchangeable server per IP with shared config.

    This models a load-balanced service: every endpoint can answer for
    every configured domain, which is precisely why the paper argues the
    redundant connections of cause IP were avoidable.
    """
    if default_certificate is None:
        if not cert_map:
            raise ValueError("fleet needs at least one certificate")
        default_certificate = next(iter(cert_map.values()))
    return [
        OriginServer(
            ip=ip,
            name=name,
            cert_map=dict(cert_map),
            default_certificate=default_certificate,
            alpn=alpn,
            alt_svc_h3=alt_svc_h3,
            origin_frame_origins=origin_frame_origins,
            excluded_domains=set(excluded_domains or ()),
        )
        for ip in ips
    ]
