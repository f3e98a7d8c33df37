"""The canary machine block: ``cpu_info``."""

import os

from repro.obs import benchjson


def test_cpu_info_fields():
    info = benchjson.cpu_info(arch="x86_64")
    assert set(info) == {"brand", "count", "arch"}
    assert info["arch"] == "x86_64"
    assert info["count"] == os.cpu_count()
    assert info["brand"] is None or (
        isinstance(info["brand"], str) and info["brand"]
    )
    assert benchjson.cpu_info()["arch"] is None
