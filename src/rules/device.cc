#include "rules/device.h"

namespace glint::rules {

const char* PlatformName(Platform p) {
  switch (p) {
    case Platform::kIFTTT: return "IFTTT";
    case Platform::kSmartThings: return "SmartThings";
    case Platform::kAlexa: return "Alexa";
    case Platform::kGoogleAssistant: return "GoogleAssistant";
    case Platform::kHomeAssistant: return "HomeAssistant";
  }
  return "?";
}

const char* DeviceWord(DeviceType d) {
  switch (d) {
    case DeviceType::kLight: return "light";
    case DeviceType::kLock: return "lock";
    case DeviceType::kWindow: return "window";
    case DeviceType::kDoor: return "door";
    case DeviceType::kGarage: return "garage";
    case DeviceType::kBlind: return "blind";
    case DeviceType::kThermostat: return "thermostat";
    case DeviceType::kAc: return "ac";
    case DeviceType::kHeater: return "heater";
    case DeviceType::kOven: return "oven";
    case DeviceType::kHumidifier: return "humidifier";
    case DeviceType::kDehumidifier: return "dehumidifier";
    case DeviceType::kFan: return "fan";
    case DeviceType::kTv: return "tv";
    case DeviceType::kSpeaker: return "speaker";
    case DeviceType::kVacuum: return "vacuum";
    case DeviceType::kSprinkler: return "sprinkler";
    case DeviceType::kCoffeeMaker: return "coffee_maker";
    case DeviceType::kKettle: return "kettle";
    case DeviceType::kCamera: return "camera";
    case DeviceType::kMotionSensor: return "motion_sensor";
    case DeviceType::kContactSensor: return "contact_sensor";
    case DeviceType::kTemperatureSensor: return "temperature_sensor";
    case DeviceType::kHumiditySensor: return "humidity_sensor";
    case DeviceType::kSmokeAlarm: return "smoke_alarm";
    case DeviceType::kPresenceSensor: return "presence_sensor";
    case DeviceType::kLeakSensor: return "leak_sensor";
    case DeviceType::kButton: return "button";
    case DeviceType::kPlug: return "plug";
    case DeviceType::kSecuritySystem: return "alarm";
    case DeviceType::kPhone: return "notification";
    case DeviceType::kEmailService: return "email";
    case DeviceType::kWeatherService: return "weather";
    case DeviceType::kCalendar: return "calendar";
    case DeviceType::kSocialMedia: return "message";
    case DeviceType::kSpreadsheet: return "spreadsheet";
  }
  return "device";
}

const char* ChannelName(Channel c) {
  switch (c) {
    case Channel::kNone: return "none";
    case Channel::kTemperature: return "temperature";
    case Channel::kHumidity: return "humidity";
    case Channel::kSmoke: return "smoke";
    case Channel::kMotion: return "motion";
    case Channel::kIlluminance: return "illuminance";
    case Channel::kSound: return "sound";
    case Channel::kContact: return "contact";
    case Channel::kLockState: return "lock_state";
    case Channel::kPresence: return "presence";
    case Channel::kWater: return "water";
    case Channel::kPower: return "power";
    case Channel::kSecurity: return "security";
    case Channel::kTime: return "time";
    case Channel::kOccupancy: return "occupancy";
    case Channel::kDigital: return "digital";
  }
  return "?";
}

bool CommandsOppose(Command a, Command b) {
  auto pair = [&](Command x, Command y) {
    return (a == x && b == y) || (a == y && b == x);
  };
  return pair(Command::kOn, Command::kOff) ||
         pair(Command::kOpen, Command::kClose) ||
         pair(Command::kLock, Command::kUnlock) ||
         pair(Command::kDim, Command::kBrighten) ||
         pair(Command::kPlay, Command::kStopPlay) ||
         pair(Command::kArm, Command::kDisarm);
}

std::vector<EnvEffect> EffectsOf(DeviceType d, Command cmd) {
  using C = Channel;
  const bool on = (cmd == Command::kOn || cmd == Command::kOpen ||
                   cmd == Command::kPlay || cmd == Command::kBrighten ||
                   cmd == Command::kStartClean || cmd == Command::kSetLevel);
  switch (d) {
    case DeviceType::kHeater:
      if (cmd == Command::kOn) return {{C::kTemperature, +1, true}};
      if (cmd == Command::kOff) return {{C::kTemperature, -1, true}};
      return {};
    case DeviceType::kAc:
      // Air conditioning both cools and dries the air (the humidity side
      // effect drives the paper's "action ablation" example).
      if (cmd == Command::kOn)
        return {{C::kTemperature, -1, true}, {C::kHumidity, -1, true}};
      if (cmd == Command::kOff) return {{C::kTemperature, +1, true}};
      return {};
    case DeviceType::kOven:
      if (cmd == Command::kOn) return {{C::kTemperature, +1, true}};
      return {};
    case DeviceType::kThermostat:
      if (cmd == Command::kSetLevel) return {{C::kTemperature, +1, true}};
      return {};
    case DeviceType::kHumidifier:
      if (cmd == Command::kOn) return {{C::kHumidity, +1, true}};
      if (cmd == Command::kOff) return {{C::kHumidity, -1, true}};
      return {};
    case DeviceType::kDehumidifier:
      if (cmd == Command::kOn) return {{C::kHumidity, -1, true}};
      return {};
    case DeviceType::kFan:
      if (cmd == Command::kOn)
        return {{C::kTemperature, -1, true}, {C::kHumidity, -1, true}};
      return {};
    case DeviceType::kWindow:
      if (cmd == Command::kOpen)
        return {{C::kTemperature, -1, true}, {C::kHumidity, -1, true}};
      return {};
    case DeviceType::kLight:
      if (cmd == Command::kOn || cmd == Command::kBrighten)
        return {{C::kIlluminance, +1, false}};
      if (cmd == Command::kOff || cmd == Command::kDim)
        return {{C::kIlluminance, -1, false}};
      return {};
    case DeviceType::kBlind:
      if (cmd == Command::kOpen) return {{C::kIlluminance, +1, false}};
      if (cmd == Command::kClose) return {{C::kIlluminance, -1, false}};
      return {};
    case DeviceType::kTv:
    case DeviceType::kSpeaker:
      if (on) return {{C::kSound, +1, false}};
      return {{C::kSound, -1, false}};
    case DeviceType::kVacuum:
      if (cmd == Command::kOn || cmd == Command::kStartClean)
        return {{C::kMotion, +1, false}, {C::kSound, +1, false}};
      return {};
    case DeviceType::kSprinkler:
      if (on) return {{C::kWater, +1, false}, {C::kHumidity, +1, true}};
      return {};
    case DeviceType::kCoffeeMaker:
    case DeviceType::kKettle:
      if (cmd == Command::kOn) return {{C::kPower, +1, false}};
      return {};
    case DeviceType::kPlug:
      if (cmd == Command::kOn) return {{C::kPower, +1, false}};
      if (cmd == Command::kOff) return {{C::kPower, -1, false}};
      return {};
    default:
      return {};
  }
}

Channel StateChannelOf(DeviceType d) {
  switch (d) {
    case DeviceType::kLight:
    case DeviceType::kBlind: return Channel::kIlluminance;
    case DeviceType::kWindow:
    case DeviceType::kDoor:
    case DeviceType::kGarage: return Channel::kContact;
    case DeviceType::kLock: return Channel::kLockState;
    case DeviceType::kTv:
    case DeviceType::kSpeaker: return Channel::kSound;
    case DeviceType::kSecuritySystem: return Channel::kSecurity;
    case DeviceType::kPhone: return Channel::kSecurity;
    case DeviceType::kCamera: return Channel::kSecurity;
    case DeviceType::kVacuum: return Channel::kMotion;
    case DeviceType::kSprinkler: return Channel::kWater;
    case DeviceType::kPlug:
    case DeviceType::kCoffeeMaker:
    case DeviceType::kKettle: return Channel::kPower;
    case DeviceType::kAc:
    case DeviceType::kHeater:
    case DeviceType::kOven:
    case DeviceType::kThermostat: return Channel::kTemperature;
    case DeviceType::kHumidifier:
    case DeviceType::kDehumidifier: return Channel::kHumidity;
    case DeviceType::kFan: return Channel::kPower;
    case DeviceType::kEmailService:
    case DeviceType::kWeatherService:
    case DeviceType::kCalendar:
    case DeviceType::kSocialMedia:
    case DeviceType::kSpreadsheet: return Channel::kDigital;
    default: return SensedChannelOf(d);
  }
}

Channel SensedChannelOf(DeviceType d) {
  switch (d) {
    case DeviceType::kMotionSensor: return Channel::kMotion;
    case DeviceType::kContactSensor: return Channel::kContact;
    case DeviceType::kTemperatureSensor: return Channel::kTemperature;
    case DeviceType::kHumiditySensor: return Channel::kHumidity;
    case DeviceType::kSmokeAlarm: return Channel::kSmoke;
    case DeviceType::kPresenceSensor: return Channel::kPresence;
    case DeviceType::kLeakSensor: return Channel::kWater;
    case DeviceType::kButton: return Channel::kPower;
    default: return Channel::kNone;
  }
}

bool IsSensor(DeviceType d) {
  return SensedChannelOf(d) != Channel::kNone;
}

}  // namespace glint::rules
