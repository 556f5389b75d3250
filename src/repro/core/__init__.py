"""The paper's contribution: detection, micro-slicing, adaptive sizing."""

from .comparators import VTrsPolicy, VTurboPolicy
from .adaptive import EPOCH_INTERVAL, NUM_LIMIT_UCORES, PROFILE_INTERVAL, AdaptiveController
from .detection import CriticalServiceDetector, Detection
from .microslice import MicroSliceEngine
from .usercrit import USER_CRITICAL, UserAwareDetector, UserCriticalRegistry, enable_user_critical
from .whitelist import CRITICAL_SYMBOLS, SIBLING_CLASSES, CriticalClass, classify, is_critical

__all__ = [
    "AdaptiveController",
    "VTrsPolicy",
    "VTurboPolicy",
    "CRITICAL_SYMBOLS",
    "CriticalClass",
    "CriticalServiceDetector",
    "Detection",
    "EPOCH_INTERVAL",
    "MicroSliceEngine",
    "NUM_LIMIT_UCORES",
    "PROFILE_INTERVAL",
    "SIBLING_CLASSES",
    "USER_CRITICAL",
    "UserAwareDetector",
    "UserCriticalRegistry",
    "classify",
    "enable_user_critical",
    "is_critical",
]
