"""Basic ACE services (Chapter 4 of the paper) and extensions, one module
per service.

====================  =======================================
Module                Paper section
====================  =======================================
``asd``               §2.4  Service Directory (discovery + leases)
``roomdb``            §4.11 Room Database
``netlogger``         §4.14 Network Logger
``authdb``            §4.10 Authorization Database
``aud``               §4.7  ACE User Database
``hrm``               §4.1  Host Resource Monitor
``srm``               §4.2  System Resource Monitor
``hal``               §4.3  Host Application Launcher
``sal``               §4.4  System Application Launcher
``wss``               §4.5  Workspace Server
``idmon``             §4.6  ID Monitor
``fiu``               §4.8  Fingerprint Identification Unit
``ibutton``           §4.9  iButton Reader
``streams``           §4.12 Converter / §4.13 Distribution substrate
``devices``           Fig. 6 PTZ cameras (VCC3/VCC4), projector (Epson 7350)
``audio``             §4.15 audio pipeline services
``dsp``               numpy kernels behind the audio services
``adaptive``          §2.5 worked example: camera-to-the-door
``tracker``           §1.1 non-human user: personnel tracking
``printer``           §9 task automation: nearest-printer printing
``pathplanner``       §8.1/§9 Ninja-style Automatic Path Creation
``gesture``           §9 gesture recognition
``triangulation``     §1.2/§9 sound triangulation
``lighting``          §9 lighting automation
====================  =======================================
"""

from repro.services.adaptive import AdaptiveCameraDaemon
from repro.services.asd import (
    DirectoryWatcherDaemon,
    ServiceDirectoryDaemon,
    ServiceRecord,
    asd_lookup,
)
from repro.services.aud import UserDatabaseDaemon, UserRecord
from repro.services.base import DatabaseDaemon
from repro.services.audio import (
    AudioCaptureDaemon,
    AudioMixerDaemon,
    AudioPlayDaemon,
    AudioRecorderDaemon,
    EchoCancellationDaemon,
    SpeechToCommandDaemon,
    TextToSpeechDaemon,
)
from repro.services.authdb import (
    AuthorizationDatabaseDaemon,
    decode_credential,
    encode_credential,
)
from repro.services.devices import (
    DeviceDaemon,
    Epson7350ProjectorDaemon,
    PTZCameraDaemon,
    ProjectorDaemon,
    VCC3CameraDaemon,
    VCC4CameraDaemon,
)
from repro.services.fiu import FingerprintUnitDaemon
from repro.services.gesture import GestureRecognitionDaemon
from repro.services.hal import HostApplicationLauncherDaemon
from repro.services.hrm import HostResourceMonitorDaemon
from repro.services.ibutton import IButtonReaderDaemon
from repro.services.idmon import IDMonitorDaemon
from repro.services.lighting import LightDaemon, LightingControllerDaemon
from repro.services.netlogger import LogEntry, NetworkLoggerDaemon
from repro.services.pathplanner import PathPlannerDaemon
from repro.services.printer import PrinterDaemon, TaskAutomationDaemon
from repro.services.roomdb import RoomDatabaseDaemon
from repro.services.sal import SystemApplicationLauncherDaemon
from repro.services.srm import SystemResourceMonitorDaemon
from repro.services.streams import (
    ConverterDaemon,
    DistributionDaemon,
    MediaChunk,
    StreamDaemon,
    StreamSink,
)
from repro.services.tracker import PersonnelTrackerDaemon
from repro.services.triangulation import SoundTriangulationDaemon
from repro.services.wss import WorkspaceServerDaemon

__all__ = [
    "AdaptiveCameraDaemon",
    "AudioCaptureDaemon",
    "AudioMixerDaemon",
    "AudioPlayDaemon",
    "AudioRecorderDaemon",
    "AuthorizationDatabaseDaemon",
    "ConverterDaemon",
    "DatabaseDaemon",
    "DeviceDaemon",
    "DistributionDaemon",
    "EchoCancellationDaemon",
    "Epson7350ProjectorDaemon",
    "FingerprintUnitDaemon",
    "GestureRecognitionDaemon",
    "HostApplicationLauncherDaemon",
    "HostResourceMonitorDaemon",
    "IButtonReaderDaemon",
    "IDMonitorDaemon",
    "LightDaemon",
    "LightingControllerDaemon",
    "LogEntry",
    "MediaChunk",
    "NetworkLoggerDaemon",
    "PTZCameraDaemon",
    "PathPlannerDaemon",
    "PersonnelTrackerDaemon",
    "PrinterDaemon",
    "ProjectorDaemon",
    "RoomDatabaseDaemon",
    "DirectoryWatcherDaemon",
    "ServiceDirectoryDaemon",
    "ServiceRecord",
    "SoundTriangulationDaemon",
    "SpeechToCommandDaemon",
    "StreamDaemon",
    "StreamSink",
    "SystemApplicationLauncherDaemon",
    "SystemResourceMonitorDaemon",
    "TaskAutomationDaemon",
    "TextToSpeechDaemon",
    "UserDatabaseDaemon",
    "UserRecord",
    "VCC3CameraDaemon",
    "VCC4CameraDaemon",
    "WorkspaceServerDaemon",
    "asd_lookup",
    "decode_credential",
    "encode_credential",
]
