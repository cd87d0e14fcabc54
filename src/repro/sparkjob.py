"""Descriptions for the Spark jobs the program launches.

Every job carries a description naming what it computes (sketch build,
evaluation batch, MC oracle, RR sets), so the Spark UI and event log
say which step of a run each job belongs to.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from pyspark.sql import SparkSession


@contextmanager
def job_description(spark: SparkSession, text: str) -> Iterator[None]:
    """Label the jobs started inside the block with ``text``; clear the
    label on exit so later jobs do not inherit it."""
    sc = spark.sparkContext
    sc.setJobDescription(text)
    try:
        yield
    finally:
        sc.setJobDescription(None)
