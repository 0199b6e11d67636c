"""Tests for dynamic instrumentation (paper Figure 1)."""

from repro.browser.api import ApiKind
from repro.browser.instrumentation import InstrumentedRuntime, WebAPIRuntime
from repro.browser.scripts import ApiCall, Script
from repro.policy.engine import PolicyFrame


def _runtime(url="https://example.org", header=None, frame=None):
    policy_frame = frame if frame is not None else PolicyFrame.top(url, header=header)
    return InstrumentedRuntime(WebAPIRuntime(policy_frame))


class TestWrapping:
    def test_call_is_recorded_with_args(self):
        runtime = _runtime()
        script = Script(url="https://example.org/app.js", source="",
                        operations=(ApiCall("navigator.permissions.query",
                                            ("camera",)),))
        runtime.execute(script)
        assert len(runtime.records) == 1
        record = runtime.records[0]
        assert record.api == "navigator.permissions.query"
        assert record.args == ("camera",)
        assert record.permissions == ("camera",)
        assert record.kind is ApiKind.STATUS_CHECK

    def test_original_function_still_works(self):
        """Figure 1: the instrumented function continues to work."""
        frame = PolicyFrame.top("https://example.org")
        runtime = WebAPIRuntime(frame)
        before = runtime.call("navigator.getBattery")
        instrumented = InstrumentedRuntime(runtime)
        after = runtime.call("navigator.getBattery")
        assert before["allowed"] == after["allowed"]
        assert len(instrumented.records) == 1

    def test_stacktrace_contains_script_url(self):
        runtime = _runtime()
        script = Script(url="https://tracker.example/t.js", source="",
                        operations=(ApiCall("navigator.getBattery"),))
        runtime.execute(script)
        record = runtime.records[0]
        assert record.stacktrace == ("https://tracker.example/t.js",)
        assert record.calling_script_url == "https://tracker.example/t.js"

    def test_inline_script_has_empty_stack_entry(self):
        """Inline scripts leave no URL in the stack — the paper classifies
        those calls as first-party."""
        runtime = _runtime()
        script = Script(url=None, source="",
                        operations=(ApiCall("navigator.getBattery"),))
        runtime.execute(script)
        assert runtime.records[0].calling_script_url is None

    def test_policy_denial_recorded_but_not_hidden(self):
        """Blocked invocations are still observed (the call happened)."""
        runtime = _runtime(header="camera=()")
        script = Script(url=None, source="", operations=(
            ApiCall("navigator.mediaDevices.getUserMedia", ("camera",)),))
        runtime.execute(script)
        record = runtime.records[0]
        assert not record.allowed

    def test_general_api_returns_allowed_features(self):
        frame = PolicyFrame.top("https://example.org")
        runtime = WebAPIRuntime(frame)
        outcome = runtime.call("document.featurePolicy.allowedFeatures")
        assert "camera" in outcome["result"]

    def test_uninstrumented_endpoint_not_recorded(self):
        """autoplay is outside the Appendix A.4 surface: calls pass through
        without a record — the paper's measurement blind spot."""
        runtime = _runtime()
        script = Script(url=None, source="",
                        operations=(ApiCall("HTMLMediaElement.play"),))
        executed = runtime.execute(script)
        assert executed == 1
        assert runtime.records == []


class TestInteractionGating:
    def _gated_script(self, gate="click"):
        return Script(url=None, source="", operations=(
            ApiCall("navigator.share", ("web-share",),
                    requires_interaction=True, interaction_gate=gate),))

    def test_gated_op_skipped_without_interaction(self):
        runtime = _runtime()
        assert runtime.execute(self._gated_script()) == 0
        assert runtime.records == []

    def test_gated_op_runs_with_interaction(self):
        runtime = _runtime()
        count = runtime.execute(self._gated_script(), interact=True)
        assert count == 1
        assert len(runtime.records) == 1

    def test_login_gate_stays_shut_for_click_interaction(self):
        """Appendix A.3: some functionality stayed inaccessible (accounts
        could not be created)."""
        runtime = _runtime()
        count = runtime.execute(self._gated_script(gate="login"),
                                interact=True,
                                unlocked_gates=frozenset({"click"}))
        assert count == 0

    def test_login_gate_opens_when_granted(self):
        runtime = _runtime()
        count = runtime.execute(self._gated_script(gate="login"),
                                interact=True,
                                unlocked_gates=frozenset({"click", "login"}))
        assert count == 1

    def test_unknown_api_op_skipped(self):
        runtime = _runtime()
        script = Script(url=None, source="",
                        operations=(ApiCall("not.a.real.api"),))
        assert runtime.execute(script) == 0


class TestRuntimeLifetime:
    def test_runtimes_are_freed_by_reference_counting(self, monkeypatch):
        """No endpoint or wrapper closure holds its runtime, so each
        document's WebAPIRuntime / InstrumentedRuntime pair dies when the
        page loader is done with it — no cyclic GC needed."""
        import gc
        import weakref

        from repro.browser import page as page_module
        from repro.browser.dom import DocumentContent
        from repro.browser.page import FetchFailure, FetchResponse, PageLoader

        refs = []

        class TrackedRuntime(WebAPIRuntime):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        class TrackedInstrumented(InstrumentedRuntime):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(page_module, "WebAPIRuntime", TrackedRuntime)
        monkeypatch.setattr(page_module, "InstrumentedRuntime",
                            TrackedInstrumented)
        # Every kind of endpoint: general, status check, powerful (both
        # allowed and blocked by the header) and one left uninstrumented.
        script = Script(url="https://a.com/app.js", source="", operations=(
            ApiCall("document.featurePolicy.allowedFeatures"),
            ApiCall("navigator.permissions.query", ("camera",)),
            ApiCall("navigator.mediaDevices.getUserMedia", ("camera",)),
            ApiCall("navigator.getBattery"),
            ApiCall("HTMLMediaElement.play"),
        ))
        response = FetchResponse(
            url="https://a.com", status=200,
            headers={"Permissions-Policy": "camera=()"},
            content=DocumentContent(scripts=[script]))

        class OnePage:
            def fetch(self, url):
                if url != response.url:
                    raise FetchFailure(url)
                return response

        loader = PageLoader(OnePage())
        gc.disable()
        try:
            page = loader.load("https://a.com")
            assert len(page.invocations) == 4
            assert len(refs) == 2
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
