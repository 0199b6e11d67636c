"""Dynamic API instrumentation (paper Figure 1).

The paper's crawler overwrites each permission-related function before any
page content executes::

    var origFunc = navigator.permissions.query;
    navigator.permissions.query = function (...params) {
        let stacktrace = new Error().stack;
        save(params, stacktrace);
        return origFunc.apply(this, [...params]);
    }

We reproduce the same mechanism: a :class:`WebAPIRuntime` exposes one
callable per API endpoint (the "original functions", simulating browser
behaviour), and :class:`InstrumentedRuntime` wraps every one of them with a
recording closure that captures the call, its arguments and the current
script stack trace, then delegates to the original — so instrumented
functions keep working, exactly as the paper stresses.

The stack trace is the list of script URLs on the execution stack; its
deepest entry identifies the calling script, which is how the analysis
attributes calls to first or third parties (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.browser.api import APISurface, ApiKind, ApiSpec, DEFAULT_API_SURFACE
from repro.browser.permission_store import PermissionState, PermissionStore
from repro.browser.scripts import Script
from repro.policy.engine import PermissionsPolicyEngine, PolicyFrame


@dataclass(frozen=True)
class InvocationRecord:
    """One recorded API call — what ``save(params, stacktrace)`` persists."""

    api: str
    kind: ApiKind
    permissions: tuple[str, ...]
    args: tuple[str, ...]
    stacktrace: tuple[str, ...]
    frame_id: int
    #: Whether the policy allowed the call to do anything; blocked calls are
    #: still *recorded* (the invocation happened) but return a denial.
    allowed: bool

    @property
    def calling_script_url(self) -> str | None:
        """URL of the script that made the call: the deepest stack entry
        carrying a URL.  ``None`` means inline/dynamic code (classified as
        first-party by the paper)."""
        for entry in reversed(self.stacktrace):
            if entry:
                return entry
        return None


class WebAPIRuntime:
    """The uninstrumented API surface of one document.

    Each endpoint is a Python callable mimicking the browser's behaviour at
    the granularity the measurement needs: policy evaluation (is the feature
    enabled in this frame?), and a structured return value.

    Endpoint closures capture what they use, never the runtime itself:
    the runtime stores them, so a closure over ``self`` would make every
    document's runtime cyclic garbage that only the cyclic GC frees.
    """

    def __init__(self, frame: PolicyFrame, *,
                 surface: APISurface = DEFAULT_API_SURFACE,
                 engine: PermissionsPolicyEngine | None = None,
                 store: "PermissionStore | None" = None) -> None:
        self.frame = frame
        self.surface = surface
        self.engine = engine if engine is not None else PermissionsPolicyEngine()
        self.store = store if store is not None else PermissionStore(
            registry=surface.registry)
        self._top_site = frame.root.effective_policy_origin().site
        # The frame's allowed features, computed on first use: a one-slot
        # list the endpoint closures share.
        self._allowed_features: list[tuple[str, ...]] = []
        # Endpoints are materialised lazily: a typical page calls a handful
        # of the ~70 declared APIs, so building every closure up front
        # dominated per-document setup time.  ``_functions`` holds only
        # endpoints that were called or explicitly overwritten.
        self._functions: dict[str, Callable[..., Any]] = {}
        self._wrap: Callable[[ApiSpec, Callable[..., Any]],
                             Callable[..., Any] | None] | None = None

    def _make_original(self, spec: ApiSpec) -> Callable[..., Any]:
        frame, engine, store = self.frame, self.engine, self.store
        top_site, features = self._top_site, self._allowed_features

        def original(*args: str) -> dict[str, Any]:
            permissions = spec.permissions_for(tuple(args))
            if spec.kind is ApiKind.GENERAL:
                allowed = True
                if not features:
                    features.append(engine.allowed_features(frame))
                result: Any = features[0]
            else:
                allowed = all(engine.is_enabled(p, frame)
                              for p in permissions) if permissions else True
                if not allowed:
                    result = PermissionState.DENIED.value
                elif spec.kind is ApiKind.STATUS_CHECK and permissions:
                    # navigator.permissions.query resolves with the
                    # remembered state (granted/denied/prompt).
                    result = store.state(top_site, permissions[0]).value
                else:
                    result = "granted-path"
            return {"api": spec.name, "allowed": allowed, "result": result}
        return original

    def get(self, name: str) -> Callable[..., Any]:
        func = self._functions.get(name)
        if func is None:
            spec = self.surface.get(name)  # raises KeyError for unknown APIs
            func = self._make_original(spec)
            if self._wrap is not None:
                wrapped = self._wrap(spec, func)
                if wrapped is not None:
                    func = wrapped
            self._functions[name] = func
        return func

    def set(self, name: str, func: Callable[..., Any]) -> None:
        """Overwrite an endpoint — the instrumentation hook point."""
        if name not in self.surface:
            raise KeyError(f"unknown API endpoint: {name!r}")
        self._functions[name] = func

    def install_wrapper(self, wrap: Callable[[ApiSpec, Callable[..., Any]],
                                             Callable[..., Any] | None]) -> None:
        """Install a hook wrapping endpoints as they materialise.

        ``wrap(spec, original)`` returns the replacement callable, or
        ``None`` to leave the endpoint unwrapped.  Already-materialised
        endpoints are rewrapped immediately; everything else is wrapped on
        first use, preserving install-before-content semantics without
        paying for ~70 closures per document.
        """
        self._wrap = wrap
        for name, func in self._functions.items():
            wrapped = wrap(self.surface.get(name), func)
            if wrapped is not None:
                self._functions[name] = wrapped

    def call(self, name: str, *args: str) -> Any:
        return self.get(name)(*args)

    def names(self) -> tuple[str, ...]:
        return self.surface.names()


class InstrumentedRuntime:
    """Wraps every endpoint of a :class:`WebAPIRuntime` with recording.

    Mirrors Figure 1: the wrapper saves (params, stacktrace) and then calls
    the saved original so behaviour is unchanged.  Records accumulate in
    :attr:`records`.  As in :class:`WebAPIRuntime`, the wrappers capture
    the records list, the script stack and the frame id, not ``self``.
    """

    def __init__(self, runtime: WebAPIRuntime, *, frame_id: int = 0) -> None:
        self.runtime = runtime
        self.frame_id = frame_id
        self.records: list[InvocationRecord] = []
        self._script_stack: list[Script] = []
        self._install()

    def _install(self) -> None:
        """Overwrite each endpoint before any content executes (the paper
        injects instrumentation via Playwright init scripts).  Only the
        Appendix A.4 surface is wrapped: endpoints whose permissions are
        not instrumented keep working but leave no record — exactly the
        paper's blind spot for autoplay, fullscreen, the ads APIs, etc."""
        observable = self.runtime.surface.observable_endpoints()
        make_wrapper = self._make_wrapper  # a staticmethod: binds no self
        records, stack, frame_id = (self.records, self._script_stack,
                                    self.frame_id)

        def wrap(spec: ApiSpec,
                 original: Callable[..., Any]) -> Callable[..., Any] | None:
            if spec.name not in observable:
                return None
            return make_wrapper(spec, original, records, stack, frame_id)

        self.runtime.install_wrapper(wrap)

    @staticmethod
    def _make_wrapper(spec: ApiSpec, original: Callable[..., Any],
                      records: list[InvocationRecord], stack: list[Script],
                      frame_id: int) -> Callable[..., Any]:
        def wrapper(*args: str) -> Any:
            outcome = original(*args)
            records.append(InvocationRecord(
                api=spec.name,
                kind=spec.kind,
                permissions=spec.permissions_for(tuple(args)),
                args=tuple(args),
                # ``new Error().stack`` equivalent: script URLs
                # innermost-last; inline/dynamic scripts contribute an
                # empty entry.
                stacktrace=tuple((script.url or "") for script in stack),
                frame_id=frame_id,
                allowed=bool(outcome.get("allowed", True)),
            ))
            return outcome
        return wrapper

    # -- script execution --------------------------------------------------------

    def execute(self, script: Script, *, interact: bool = False,
                unlocked_gates: frozenset[str] = frozenset({"click"})) -> int:
        """Run a script through the instrumented surface.

        Args:
            script: The script to run.
            interact: Whether user interaction is simulated; gated
                operations fire only if their gate is in ``unlocked_gates``.
            unlocked_gates: Which interaction gates the simulated user can
                open (a crawler click opens ``click``; ``login`` or
                ``subscription`` stay shut unless explicitly granted —
                Appendix A.3's inaccessible functionality).

        Returns:
            Number of operations executed.
        """
        executed = 0
        self._script_stack.append(script)
        try:
            for op in script.operations:
                if op.requires_interaction:
                    if not interact or op.interaction_gate not in unlocked_gates:
                        continue
                if self.runtime.surface.maybe(op.api) is None:
                    continue
                self.runtime.call(op.api, *op.args)
                executed += 1
        finally:
            self._script_stack.pop()
        return executed
